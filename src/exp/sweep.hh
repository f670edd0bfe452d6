/**
 * @file
 * SweepSpec: the declarative description of one experiment — a set of
 * independent (mechanism, mix, config) points, typically built as a
 * cartesian product of mechanisms x workload mixes x config overrides.
 * The ExperimentRunner evaluates every point (in parallel when asked)
 * and produces one PointRecord per point.
 */

#ifndef DBSIM_EXP_SWEEP_HH
#define DBSIM_EXP_SWEEP_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exp/record.hh"
#include "sim/system.hh"
#include "workload/mixes.hh"

namespace dbsim::exp {

/** How the runner evaluates a point. */
enum class PointKind
{
    Sim,     ///< runWorkload; standard per-run metrics
    MixSim,  ///< Sim plus multi-core metrics against alone IPCs
    Custom,  ///< the point's own callback fills the record
};

/** One independent experiment point. */
struct SweepPoint
{
    std::size_t index = 0;
    PointKind kind = PointKind::Sim;

    /**
     * Full system config (mechanism included). Custom points receive
     * it, with the runner's audit/observer options applied, as their
     * callback's first argument.
     */
    SystemConfig cfg;

    /** One benchmark per core for Sim/MixSim points. */
    WorkloadMix mix;

    /** Config-axis coordinates, copied into the record. */
    std::map<std::string, std::string> tags;

    /** Evaluator for Custom points. */
    std::function<void(const SystemConfig &, PointRecord &)> custom;
};

/**
 * One value on a config axis: a tag ("granularity" -> "64") plus the
 * edit it applies to the system config.
 */
struct ConfigOverride
{
    std::string axis;
    std::string value;
    std::function<void(SystemConfig &)> apply;
};

/** An ordered list of sweep points plus the configs they derive from. */
class SweepSpec
{
  public:
    explicit SweepSpec(SystemConfig base_cfg = {})
        : baseCfg(base_cfg), aloneCfg(base_cfg)
    {}

    /** Config that addSim/addMixSim/addGrid points start from. */
    SystemConfig &base() { return baseCfg; }
    const SystemConfig &base() const { return baseCfg; }

    /**
     * Config the alone-IPC runs of MixSim points inherit (core count
     * and mechanism are overridden per run). Defaults to base() as it
     * was at construction; set explicitly after editing base().
     */
    void setAloneBase(const SystemConfig &cfg) { aloneCfg = cfg; }
    const SystemConfig &aloneBase() const { return aloneCfg; }

    /** Add one single-run point; returns it for cfg/tag edits. */
    SweepPoint &addSim(const MechanismSpec &mech, WorkloadMix mix);

    /** Add one multi-core-metrics point; returns it for edits. */
    SweepPoint &addMixSim(const MechanismSpec &mech, WorkloadMix mix);

    /**
     * Add a point evaluated by `fn` on `cfg`; returns it for tag
     * edits. Points that simulate should build their System from the
     * config `fn` is handed, so harness flags reach them exactly as
     * they reach Sim points.
     */
    SweepPoint &addCustom(
        SystemConfig cfg,
        std::function<void(const SystemConfig &, PointRecord &)> fn);

    /**
     * Cartesian product: one point per (override per axis) x mechanism
     * x mix, in that nesting order (axes outermost, mixes innermost).
     * Each point's tags carry the axis coordinates.
     */
    void addGrid(const std::vector<MechanismSpec> &mechs,
                 const std::vector<WorkloadMix> &mixes,
                 PointKind kind = PointKind::Sim,
                 const std::vector<std::vector<ConfigOverride>> &axes = {});

    const std::vector<SweepPoint> &points() const { return pts; }

    /**
     * Apply `fn` to every config the spec embeds: base, alone-base,
     * and each already-added point's, Custom points included. The
     * harness's machine-shape flags (--slices/--channels/--hop,
     * --dcache*, --trace and sampling) go through here so every
     * experiment honors them without per-bench plumbing.
     */
    void overrideConfigs(const std::function<void(SystemConfig &)> &fn);

    /** True when any point needs alone-IPC normalization. */
    bool hasMixSim() const;

  private:
    SweepPoint &append(SweepPoint p);

    SystemConfig baseCfg;
    SystemConfig aloneCfg;
    std::vector<SweepPoint> pts;
};

} // namespace dbsim::exp

#endif // DBSIM_EXP_SWEEP_HH
