#include "core/pat.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <utility>

#include "util/csv.h"
#include "util/logging.h"

namespace heb {

struct PowerAllocationTable::Pending
{
    explicit Pending(std::function<double()> compute)
        : compute(std::move(compute))
    {
    }

    /** The ratio: the first reader computes it, the others wait. */
    double
    get() const
    {
        std::call_once(once, [this] { value = compute(); });
        return value;
    }

    std::function<double()> compute;
    mutable std::once_flag once;
    mutable double value = 0.0;
};

PowerAllocationTable::PowerAllocationTable(PatGrid grid, double delta_r)
    : grid_(grid), deltaR_(delta_r)
{
    if (grid_.scStepWh <= 0.0 || grid_.baStepWh <= 0.0 ||
        grid_.pmStepW <= 0.0) {
        fatal("PAT grid steps must be positive");
    }
    if (delta_r <= 0.0 || delta_r > 0.5)
        fatal("PAT delta_r must be in (0, 0.5], got ", delta_r);
}

double
PowerAllocationTable::quantize(double value, double step) const
{
    return std::round(value / step) * step;
}

std::optional<std::size_t>
PowerAllocationTable::findExact(double sc_q, double ba_q,
                                double pm_q) const
{
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const PatEntry &e = entries_[i];
        if (e.scWh == sc_q && e.baWh == ba_q && e.mismatchW == pm_q)
            return i;
    }
    return std::nullopt;
}

double
PowerAllocationTable::ratio(std::size_t i) const
{
    return pending_[i] ? pending_[i]->get() : entries_[i].rLambda;
}

std::vector<PatEntry>
PowerAllocationTable::entries() const
{
    std::vector<PatEntry> out = entries_;
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].rLambda = ratio(i);
    return out;
}

void
PowerAllocationTable::restoreEntries(std::vector<PatEntry> entries)
{
    entries_ = std::move(entries);
    pending_.assign(entries_.size(), nullptr);
}

std::optional<double>
PowerAllocationTable::lookupExact(double sc_wh, double ba_wh,
                                  double mismatch_w) const
{
    auto idx = findExact(quantize(sc_wh, grid_.scStepWh),
                         quantize(ba_wh, grid_.baStepWh),
                         quantize(mismatch_w, grid_.pmStepW));
    if (!idx)
        return std::nullopt;
    return ratio(*idx);
}

std::optional<double>
PowerAllocationTable::lookupSimilar(double sc_wh, double ba_wh,
                                    double mismatch_w) const
{
    if (entries_.empty())
        return std::nullopt;
    // Normalize each key axis by its grid step so the distance is
    // measured in grid cells on every axis. Ties go to the earlier
    // entry, and only the winner's ratio is read.
    double best = std::numeric_limits<double>::max();
    std::size_t best_i = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const PatEntry &e = entries_[i];
        double dsc = (e.scWh - sc_wh) / grid_.scStepWh;
        double dba = (e.baWh - ba_wh) / grid_.baStepWh;
        double dpm = (e.mismatchW - mismatch_w) / grid_.pmStepW;
        double dist = dsc * dsc + dba * dba + dpm * dpm;
        if (dist < best) {
            best = dist;
            best_i = i;
        }
    }
    return ratio(best_i);
}

std::optional<double>
PowerAllocationTable::lookup(double sc_wh, double ba_wh,
                             double mismatch_w) const
{
    auto exact = lookupExact(sc_wh, ba_wh, mismatch_w);
    if (exact)
        return exact;
    return lookupSimilar(sc_wh, ba_wh, mismatch_w);
}

void
PowerAllocationTable::seed(double sc_wh, double ba_wh,
                           double mismatch_w, double r_lambda)
{
    place(sc_wh, ba_wh, mismatch_w, std::clamp(r_lambda, 0.0, 1.0),
          nullptr);
}

void
PowerAllocationTable::seed(double sc_wh, double ba_wh,
                           double mismatch_w, std::function<double()> race)
{
    place(sc_wh, ba_wh, mismatch_w, 0.0,
          std::make_shared<const Pending>([race = std::move(race)] {
              return std::clamp(race(), 0.0, 1.0);
          }));
}

void
PowerAllocationTable::place(double sc_wh, double ba_wh,
                            double mismatch_w, double r_lambda,
                            std::shared_ptr<const Pending> pending)
{
    double sc_q = quantize(sc_wh, grid_.scStepWh);
    double ba_q = quantize(ba_wh, grid_.baStepWh);
    double pm_q = quantize(mismatch_w, grid_.pmStepW);
    auto idx = findExact(sc_q, ba_q, pm_q);
    if (!idx) {
        idx = entries_.size();
        entries_.push_back(PatEntry{sc_q, ba_q, pm_q, 0.0, 0});
        pending_.push_back(nullptr);
    }
    entries_[*idx].rLambda = r_lambda;
    pending_[*idx] = std::move(pending);
}

void
PowerAllocationTable::saveCsv(const std::string &path) const
{
    CsvWriter w(path);
    if (!w.ok())
        return;
    w.header({"sc_wh", "ba_wh", "mismatch_w", "r_lambda", "updates"});
    for (const PatEntry &e : entries()) {
        w.row({e.scWh, e.baWh, e.mismatchW, e.rLambda,
               static_cast<double>(e.updates)});
    }
}

PowerAllocationTable
PowerAllocationTable::loadCsv(const std::string &path, PatGrid grid,
                              double delta_r)
{
    PowerAllocationTable table(grid, delta_r);
    CsvTable csv = readCsv(path);
    std::size_t i_sc = csv.columnIndex("sc_wh");
    std::size_t i_ba = csv.columnIndex("ba_wh");
    std::size_t i_pm = csv.columnIndex("mismatch_w");
    std::size_t i_r = csv.columnIndex("r_lambda");
    std::size_t i_u = csv.columnIndex("updates");
    for (const auto &row : csv.rows) {
        table.seed(row[i_sc], row[i_ba], row[i_pm], row[i_r]);
        auto idx = table.findExact(
            table.quantize(row[i_sc], grid.scStepWh),
            table.quantize(row[i_ba], grid.baStepWh),
            table.quantize(row[i_pm], grid.pmStepW));
        if (idx) {
            table.entries_[*idx].updates =
                static_cast<unsigned long>(row[i_u]);
        }
    }
    return table;
}

PowerAllocationTable
PowerAllocationTable::requantized(PatGrid coarser_grid) const
{
    PowerAllocationTable out(coarser_grid, deltaR_);
    // The source entries mapping to each coarse cell, in table order.
    struct Source
    {
        double rLambda;
        std::shared_ptr<const Pending> pending;
    };
    std::vector<std::vector<Source>> cells;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const PatEntry &e = entries_[i];
        double sc_q = out.quantize(e.scWh, coarser_grid.scStepWh);
        double ba_q = out.quantize(e.baWh, coarser_grid.baStepWh);
        double pm_q = out.quantize(e.mismatchW, coarser_grid.pmStepW);
        auto idx = out.findExact(sc_q, ba_q, pm_q);
        if (!idx) {
            idx = out.entries_.size();
            out.entries_.push_back(PatEntry{sc_q, ba_q, pm_q, 0.0, 0});
            cells.emplace_back();
        }
        cells[*idx].push_back(Source{e.rLambda, pending_[i]});
    }
    // Each coarse cell averages its sources' R_lambda as a running
    // mean, in table order, when first read.
    for (std::vector<Source> &cell : cells) {
        out.pending_.push_back(std::make_shared<const Pending>(
            [sources = std::move(cell)] {
                double r = 0.0;
                double n = 0.0;
                for (const Source &s : sources) {
                    double v = s.pending ? s.pending->get() : s.rLambda;
                    r = n == 0.0 ? v : (r * n + v) / (n + 1.0);
                    n += 1.0;
                }
                return r;
            }));
    }
    return out;
}

void
PowerAllocationTable::recordOutcome(double sc_initial_wh,
                                    double ba_initial_wh,
                                    double actual_pm_w, double r_lambda,
                                    double sc_end_wh, double ba_end_wh)
{
    double sc_q = quantize(sc_initial_wh, grid_.scStepWh);
    double ba_q = quantize(ba_initial_wh, grid_.baStepWh);
    double pm_q = quantize(actual_pm_w, grid_.pmStepW);

    auto idx = findExact(sc_q, ba_q, pm_q);
    if (!idx) {
        // Lines 13-15: format (round) and add the new entry.
        entries_.push_back(PatEntry{
            sc_q, ba_q, pm_q, std::clamp(r_lambda, 0.0, 1.0), 0});
        pending_.push_back(nullptr);
        return;
    }

    // Lines 16-22: nudge the entry by comparing the relative decline
    // of the two pools over the slot. A pending seed ratio becomes
    // this table's own first.
    PatEntry &e = entries_[*idx];
    e.rLambda = ratio(*idx);
    pending_[*idx] = nullptr;
    if (ba_initial_wh <= 0.0 || ba_end_wh <= 0.0) {
        // Battery fully drained: lean harder on SCs next time.
        e.rLambda = std::clamp(e.rLambda + deltaR_, 0.0, 1.0);
        ++e.updates;
        return;
    }
    double ratio_initial = sc_initial_wh / ba_initial_wh;
    double ratio_end = sc_end_wh / ba_end_wh;
    if (ratio_end > ratio_initial) {
        // Battery declined faster than the SC: give the SC more load.
        e.rLambda = std::clamp(e.rLambda + deltaR_, 0.0, 1.0);
    } else if (ratio_end < ratio_initial) {
        // SC declined faster: give the battery more load.
        e.rLambda = std::clamp(e.rLambda - deltaR_, 0.0, 1.0);
    }
    ++e.updates;
}

} // namespace heb
