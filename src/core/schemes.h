/**
 * @file
 * The six evaluated power-management schemes (paper Table 2).
 */

#pragma once

#include <memory>
#include <string>

#include "core/pat.h"
#include "core/predictor.h"
#include "core/scheme.h"

namespace heb {

/** BaOnly: homogeneous batteries shave every peak (prior work [8]). */
class BaOnlyScheme : public ManagementScheme
{
  public:
    BaOnlyScheme();
    const std::string &name() const override { return name_; }
    SlotPlan planSlot(const SlotSensors &sensors) override;
    void finishSlot(const SlotOutcome &outcome) override;
    bool usesHybridBuffers() const override { return false; }

  private:
    std::string name_ = "BaOnly";
};

/** BaFirst: drain batteries, fall back to SCs when they empty. */
class BaFirstScheme : public ManagementScheme
{
  public:
    BaFirstScheme();
    const std::string &name() const override { return name_; }
    SlotPlan planSlot(const SlotSensors &sensors) override;
    void finishSlot(const SlotOutcome &outcome) override;

  private:
    std::string name_ = "BaFirst";
};

/** SCFirst: drain SCs, fall back to batteries when they empty. */
class ScFirstScheme : public ManagementScheme
{
  public:
    ScFirstScheme();
    const std::string &name() const override { return name_; }
    SlotPlan planSlot(const SlotSensors &sensors) override;
    void finishSlot(const SlotOutcome &outcome) override;

  private:
    std::string name_ = "SCFirst";
};

/** Configuration of the load-aware HEB scheme family. */
struct HebSchemeConfig
{
    /** Use Holt-Winters (true) or last-slot-value (false). */
    bool holtWintersPrediction = true;

    /** Apply the Fig. 10 end-of-slot PAT refinement. */
    bool dynamicPatUpdates = true;

    /** Holt-Winters knobs (when enabled). */
    HoltWintersParams hwParams{};

    /** PAT quantization grid. */
    PatGrid patGrid{};

    /** PAT refinement step Δr. */
    double deltaR = 0.01;

    /**
     * Peaks whose predicted mismatch is at or below this power are
     * "small" and handled SC-first (paper §5.2). The prototype's
     * small-peak workloads swing up to ~65 W per slot while the
     * large-peak group starts near 160 W, so 80 W splits the classes
     * cleanly.
     */
    double smallPeakThresholdW = 80.0;
};

/**
 * The HEB family: prediction + PAT-driven load assignment. HEB-F,
 * HEB-S and HEB-D are configurations of this class (see makeScheme).
 */
class HebScheme : public ManagementScheme
{
  public:
    /**
     * @param name    Table 2 label.
     * @param config  Family configuration.
     * @param seeded  Optional profiled PAT to start from (HEB-S/D).
     */
    HebScheme(std::string name, HebSchemeConfig config,
              PowerAllocationTable seeded = PowerAllocationTable());

    const std::string &name() const override { return name_; }
    SlotPlan planSlot(const SlotSensors &sensors) override;
    void finishSlot(const SlotOutcome &outcome) override;
    void checkpoint(StateCursor &cursor) override;

    /** The live allocation table (inspection / persistence). */
    const PowerAllocationTable &pat() const { return pat_; }

    /** Config in use. */
    const HebSchemeConfig &config() const { return config_; }

  private:
    std::string name_;
    HebSchemeConfig config_;
    PowerAllocationTable pat_;
    MismatchPredictor predictor_;
    bool havePlan_ = false;
    SlotPlan lastPlan_{};
};

/**
 * Build a Table 2 scheme by kind. HEB variants accept an optional
 * profiled PAT (ignored by the others).
 */
std::unique_ptr<ManagementScheme>
makeScheme(SchemeKind kind, const HebSchemeConfig &config = {},
           const PowerAllocationTable *seeded_pat = nullptr);

} // namespace heb
