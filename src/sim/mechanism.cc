#include "mechanism.hh"

#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace dbsim {

const char *
mechanismName(Mechanism m)
{
    switch (m) {
      case Mechanism::Baseline:
        return "Baseline";
      case Mechanism::TaDip:
        return "TA-DIP";
      case Mechanism::Dawb:
        return "DAWB";
      case Mechanism::Vwq:
        return "VWQ";
      case Mechanism::SkipCache:
        return "SkipCache";
      case Mechanism::Dbi:
        return "DBI";
      case Mechanism::DbiAwb:
        return "DBI+AWB";
      case Mechanism::DbiClb:
        return "DBI+CLB";
      case Mechanism::DbiAwbClb:
        return "DBI+AWB+CLB";
    }
    return "?";
}

MechanismSpec
mechanismSpec(Mechanism m)
{
    MechanismSpec s;
    s.label = mechanismName(m);
    switch (m) {
      case Mechanism::Baseline:
        s.baselineLru = true;
        break;
      case Mechanism::TaDip:
        break;
      case Mechanism::Dawb:
        s.writeback = WritebackKind::DawbSweep;
        break;
      case Mechanism::Vwq:
        s.writeback = WritebackKind::VwqSweep;
        break;
      case Mechanism::SkipCache:
        s.store = DirtyStoreKind::WriteThrough;
        s.lookup = LookupKind::SkipBypass;
        break;
      case Mechanism::Dbi:
        s.store = DirtyStoreKind::Dbi;
        break;
      case Mechanism::DbiAwb:
        s.store = DirtyStoreKind::Dbi;
        s.writeback = WritebackKind::DbiAwb;
        break;
      case Mechanism::DbiClb:
        s.store = DirtyStoreKind::Dbi;
        s.lookup = LookupKind::ClbBypass;
        break;
      case Mechanism::DbiAwbClb:
        s.store = DirtyStoreKind::Dbi;
        s.writeback = WritebackKind::DbiAwb;
        s.lookup = LookupKind::ClbBypass;
        break;
    }
    return s;
}

MechanismSpec::MechanismSpec(Mechanism m) : MechanismSpec(mechanismSpec(m))
{
}

std::string
mechanismSpecString(const MechanismSpec &spec)
{
    for (Mechanism m : allMechanisms()) {
        if (spec == mechanismSpec(m)) {
            return mechanismName(m);
        }
    }
    std::string out;
    switch (spec.store) {
      case DirtyStoreKind::InTag:
        out = "tag";
        break;
      case DirtyStoreKind::WriteThrough:
        out = "wt";
        break;
      case DirtyStoreKind::Dbi:
        out = "dbi";
        break;
    }
    switch (spec.writeback) {
      case WritebackKind::EvictOrder:
        break;
      case WritebackKind::DawbSweep:
        out += "+dawb";
        break;
      case WritebackKind::VwqSweep:
        out += "+vwq";
        break;
      case WritebackKind::DbiAwb:
        out += "+awb";
        break;
    }
    switch (spec.lookup) {
      case LookupKind::Always:
        break;
      case LookupKind::SkipBypass:
        out += "+skip";
        break;
      case LookupKind::ClbBypass:
        out += "+clb";
        break;
    }
    if (spec.attachEcc) {
        out += "+ecc";
    }
    if (spec.baselineLru) {
        out += "+lru";
    }
    return out;
}

std::ostream &
operator<<(std::ostream &os, const MechanismSpec &spec)
{
    return os << mechanismSpecString(spec);
}

namespace {

/** The help text every mechanism-name fatal() carries (satellite: the
 *  error must teach the full grammar, not just echo the bad name). */
std::string
mechanismHelp()
{
    std::string presets;
    for (Mechanism m : allMechanisms()) {
        if (!presets.empty()) {
            presets += ", ";
        }
        presets += mechanismName(m);
    }
    return "  presets: " + presets +
           "\n"
           "  composed specs: '+'-separated tokens\n"
           "    dirty store:  tag | wt | dbi   (default tag; awb/clb/"
           "ecc imply dbi, skip implies wt)\n"
           "    writeback:    dawb | vwq | awb (default evict-order)\n"
           "    lookup:       skip | clb      (default always-lookup)\n"
           "    metadata:     ecc             (hetero-ECC; needs dbi)\n"
           "    replacement:  lru             (default TA-DIP/DRRIP)\n"
           "  e.g. 'dbi+dawb', 'dawb+clb', 'vwq+clb', 'dbi+awb+ecc'\n"
           "  On sliced machines (--slices N) every LLC slice composes "
           "its own\n"
           "  slice-local policy tuple (DirtyStore x WritebackPolicy x "
           "LookupPolicy)\n"
           "  from this one spec; the mechanism is machine-wide, the "
           "state per-slice.";
}

[[noreturn]] void
badMechanism(const std::string &name, const std::string &why)
{
    fatal("%s mechanism '%s'\n%s", why.c_str(), name.c_str(),
          mechanismHelp().c_str());
}

/** Parse a composed '+'-token spec (the name is not a preset). */
MechanismSpec
parseComposedSpec(const std::string &name)
{
    MechanismSpec spec;
    bool store_set = false, wb_set = false, lookup_set = false;

    auto setStore = [&](DirtyStoreKind k) {
        if (store_set && spec.store != k) {
            badMechanism(name, "conflicting dirty-store tokens in");
        }
        spec.store = k;
        store_set = true;
    };
    auto setWb = [&](WritebackKind k) {
        if (wb_set) {
            badMechanism(name, "conflicting writeback tokens in");
        }
        spec.writeback = k;
        wb_set = true;
    };
    auto setLookup = [&](LookupKind k) {
        if (lookup_set) {
            badMechanism(name, "conflicting lookup tokens in");
        }
        spec.lookup = k;
        lookup_set = true;
    };

    std::stringstream ss(name);
    std::string tok;
    bool any = false;
    while (std::getline(ss, tok, '+')) {
        any = true;
        if (tok == "tag") {
            setStore(DirtyStoreKind::InTag);
        } else if (tok == "wt") {
            setStore(DirtyStoreKind::WriteThrough);
        } else if (tok == "dbi") {
            setStore(DirtyStoreKind::Dbi);
        } else if (tok == "dawb") {
            setWb(WritebackKind::DawbSweep);
        } else if (tok == "vwq") {
            setWb(WritebackKind::VwqSweep);
        } else if (tok == "awb") {
            setWb(WritebackKind::DbiAwb);
            if (!store_set) {
                setStore(DirtyStoreKind::Dbi);
            }
        } else if (tok == "skip") {
            setLookup(LookupKind::SkipBypass);
            if (!store_set) {
                setStore(DirtyStoreKind::WriteThrough);
            }
        } else if (tok == "clb") {
            setLookup(LookupKind::ClbBypass);
            if (!store_set) {
                setStore(DirtyStoreKind::Dbi);
            }
        } else if (tok == "ecc") {
            spec.attachEcc = true;
            if (!store_set) {
                setStore(DirtyStoreKind::Dbi);
            }
        } else if (tok == "lru") {
            spec.baselineLru = true;
        } else {
            badMechanism(name, "unknown");
        }
    }
    if (!any) {
        badMechanism(name, "unknown");
    }

    // Cross-axis validation: the combinations that cannot work.
    bool is_wt = spec.store == DirtyStoreKind::WriteThrough;
    bool is_dbi = spec.store == DirtyStoreKind::Dbi;
    if (spec.lookup == LookupKind::SkipBypass && !is_wt) {
        badMechanism(name, "'skip' needs a write-through (wt) store in");
    }
    if (spec.lookup == LookupKind::ClbBypass && !is_dbi) {
        badMechanism(name, "'clb' needs a DBI store in");
    }
    if (spec.writeback == WritebackKind::DbiAwb && !is_dbi) {
        badMechanism(name, "'awb' needs a DBI store in");
    }
    if (spec.attachEcc && !is_dbi) {
        badMechanism(name, "'ecc' needs a DBI store in");
    }
    if (is_wt && spec.writeback != WritebackKind::EvictOrder) {
        badMechanism(name,
                     "writeback sweeps are pointless over 'wt' in");
    }

    spec.label = mechanismSpecString(spec);
    return spec;
}

} // namespace

MechanismSpec
mechanismByName(const std::string &name)
{
    for (Mechanism m : allMechanisms()) {
        if (name == mechanismName(m)) {
            return mechanismSpec(m);
        }
    }
    return parseComposedSpec(name);
}

Mechanism
mechanismPresetByName(const std::string &name)
{
    for (Mechanism m : allMechanisms()) {
        if (name == mechanismName(m)) {
            return m;
        }
    }
    badMechanism(name, "unknown preset");
}

const std::vector<Mechanism> &
allMechanisms()
{
    static const std::vector<Mechanism> all = {
        Mechanism::Baseline, Mechanism::TaDip,  Mechanism::Dawb,
        Mechanism::Vwq,      Mechanism::SkipCache, Mechanism::Dbi,
        Mechanism::DbiAwb,   Mechanism::DbiClb, Mechanism::DbiAwbClb,
    };
    return all;
}

std::unique_ptr<Llc>
makeLlc(const MechanismSpec &spec, const LlcConfig &llc_cfg,
        const DbiConfig &dbi_cfg, BackingPort &backing, EventQueue &eq,
        std::shared_ptr<MissPredictor> predictor)
{
    std::unique_ptr<DirtyStore> store;
    switch (spec.store) {
      case DirtyStoreKind::InTag:
        store = std::make_unique<TagDirtyStore>();
        break;
      case DirtyStoreKind::WriteThrough:
        store = std::make_unique<WriteThroughStore>();
        break;
      case DirtyStoreKind::Dbi:
        store = std::make_unique<DbiDirtyStore>(dbi_cfg);
        break;
    }

    std::unique_ptr<WritebackPolicy> wb;
    switch (spec.writeback) {
      case WritebackKind::EvictOrder:
        wb = std::make_unique<EvictOrderPolicy>();
        break;
      case WritebackKind::DawbSweep:
        wb = std::make_unique<DawbSweepPolicy>();
        break;
      case WritebackKind::VwqSweep:
        wb = std::make_unique<VwqSweepPolicy>();
        break;
      case WritebackKind::DbiAwb:
        wb = std::make_unique<DbiAwbPolicy>();
        break;
    }

    std::unique_ptr<LookupPolicy> lookup;
    switch (spec.lookup) {
      case LookupKind::Always:
        lookup = std::make_unique<AlwaysLookup>();
        break;
      case LookupKind::SkipBypass:
        lookup = std::make_unique<SkipBypassLookup>(predictor);
        break;
      case LookupKind::ClbBypass:
        lookup = std::make_unique<ClbBypassLookup>(predictor);
        break;
    }

    return std::make_unique<Llc>(llc_cfg, backing, eq, std::move(store),
                                 std::move(wb), std::move(lookup));
}

} // namespace dbsim
