#include "sweep.hh"

namespace dbsim::exp {

SweepPoint &
SweepSpec::append(SweepPoint p)
{
    p.index = pts.size();
    pts.push_back(std::move(p));
    return pts.back();
}

SweepPoint &
SweepSpec::addSim(const MechanismSpec &mech, WorkloadMix mix)
{
    SweepPoint p;
    p.kind = PointKind::Sim;
    p.cfg = baseCfg;
    p.cfg.mech = mech;
    p.mix = std::move(mix);
    return append(std::move(p));
}

SweepPoint &
SweepSpec::addMixSim(const MechanismSpec &mech, WorkloadMix mix)
{
    SweepPoint &p = addSim(mech, std::move(mix));
    p.kind = PointKind::MixSim;
    return p;
}

SweepPoint &
SweepSpec::addCustom(
    SystemConfig cfg,
    std::function<void(const SystemConfig &, PointRecord &)> fn)
{
    SweepPoint p;
    p.kind = PointKind::Custom;
    p.cfg = std::move(cfg);
    p.custom = std::move(fn);
    return append(std::move(p));
}

void
SweepSpec::addGrid(const std::vector<MechanismSpec> &mechs,
                   const std::vector<WorkloadMix> &mixes, PointKind kind,
                   const std::vector<std::vector<ConfigOverride>> &axes)
{
    // Odometer over the override axes; an empty axis list yields the
    // single empty combination.
    std::vector<std::size_t> pos(axes.size(), 0);
    while (true) {
        SystemConfig cfg = baseCfg;
        std::map<std::string, std::string> tags;
        for (std::size_t a = 0; a < axes.size(); ++a) {
            const ConfigOverride &o = axes[a][pos[a]];
            tags[o.axis] = o.value;
            if (o.apply) {
                o.apply(cfg);
            }
        }
        for (const MechanismSpec &m : mechs) {
            for (const auto &mix : mixes) {
                SweepPoint p;
                p.kind = kind;
                p.cfg = cfg;
                p.cfg.mech = m;
                p.mix = mix;
                p.tags = tags;
                append(std::move(p));
            }
        }
        // Advance the odometer (last axis fastest).
        std::size_t a = axes.size();
        while (a > 0) {
            --a;
            if (++pos[a] < axes[a].size()) {
                break;
            }
            pos[a] = 0;
            if (a == 0) {
                return;
            }
        }
        if (axes.empty()) {
            return;
        }
    }
}

void
SweepSpec::overrideConfigs(const std::function<void(SystemConfig &)> &fn)
{
    fn(baseCfg);
    fn(aloneCfg);
    for (SweepPoint &p : pts) {
        fn(p.cfg);
    }
}

bool
SweepSpec::hasMixSim() const
{
    for (const auto &p : pts) {
        if (p.kind == PointKind::MixSim) {
            return true;
        }
    }
    return false;
}

} // namespace dbsim::exp
