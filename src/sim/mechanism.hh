/**
 * @file
 * The evaluated mechanisms (Table 2), decomposed.
 *
 * A mechanism is not a cache subtype but a tuple over the three policy
 * axes of llc/policies.hh — dirty store x writeback policy x lookup
 * policy — plus an optional metadata attachment (hetero-ECC) and the
 * replacement-policy choice. Table 2's names are presets over these
 * tuples; mechanismByName() additionally parses composed specs
 * ("dbi+dawb", "dawb+clb", "dbi+awb+ecc", ...) so experiments can
 * explore the whole cross-product.
 */

#ifndef DBSIM_SIM_MECHANISM_HH
#define DBSIM_SIM_MECHANISM_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "llc/llc.hh"
#include "pred/miss_predictor.hh"

namespace dbsim {

/** Mechanisms from Table 2 (the preset tuples). */
enum class Mechanism
{
    Baseline,   ///< LRU cache
    TaDip,      ///< thread-aware dynamic insertion policy
    Dawb,       ///< DRAM-aware writeback [27] (+TA-DIP)
    Vwq,        ///< Virtual Write Queue [51] (+TA-DIP)
    SkipCache,  ///< per-application lookup bypass [44] (+TA-DIP)
    Dbi,        ///< plain DBI (+TA-DIP)
    DbiAwb,     ///< DBI + aggressive writeback
    DbiClb,     ///< DBI + cache lookup bypass
    DbiAwbClb,  ///< DBI + both optimizations
};

/** The writeback-policy axis (what a dirty eviction triggers). */
enum class WritebackKind : std::uint8_t
{
    EvictOrder, ///< nothing extra: write back in eviction order
    DawbSweep,  ///< DAWB full-row tag sweep
    VwqSweep,   ///< VWQ SSV-filtered LRU-way sweep
    DbiAwb,     ///< DBI aggressive writeback (row listed by the DBI)
};

/** The lookup-policy axis (may reads bypass the tag lookup?). */
enum class LookupKind : std::uint8_t
{
    Always,     ///< every read performs the tag lookup
    SkipBypass, ///< Skip-Cache predicted-miss bypass
    ClbBypass,  ///< DBI cache lookup bypass
};

/**
 * A fully-specified mechanism: the policy tuple the LLC is composed
 * from, plus the metadata attachment and the replacement-policy choice.
 * Implicitly constructible from a Table 2 Mechanism, so preset-based
 * code (`cfg.mech = Mechanism::Dawb`) keeps working unchanged.
 */
struct MechanismSpec
{
    DirtyStoreKind store = DirtyStoreKind::InTag;
    WritebackKind writeback = WritebackKind::EvictOrder;
    LookupKind lookup = LookupKind::Always;

    /** Baseline preset: plain LRU replacement instead of TA-DIP/DRRIP. */
    bool baselineLru = false;

    /** Attach the heterogeneous-ECC tracker (needs a DBI store). */
    bool attachEcc = false;

    // Always false; read only by simbench (goes in its benchmark-scope step).
    static constexpr bool attachDirectory = false;

    /** Display label: the Table 2 name, or the canonical spec string. */
    std::string label = "TA-DIP";

    MechanismSpec() = default;
    MechanismSpec(Mechanism m);  // NOLINT: implicit by design

    /** Does this composition need a miss predictor? */
    bool needsPredictor() const { return lookup != LookupKind::Always; }

    /** Policy-tuple equality (labels are display-only and ignored). */
    friend bool
    operator==(const MechanismSpec &a, const MechanismSpec &b)
    {
        return a.store == b.store && a.writeback == b.writeback &&
               a.lookup == b.lookup && a.baselineLru == b.baselineLru &&
               a.attachEcc == b.attachEcc;
    }
    friend bool
    operator!=(const MechanismSpec &a, const MechanismSpec &b)
    {
        return !(a == b);
    }
};

/** gtest/diagnostic printing. */
std::ostream &operator<<(std::ostream &os, const MechanismSpec &spec);

/** Display label used in the paper's figures. */
const char *mechanismName(Mechanism m);

/** The policy tuple a Table 2 preset stands for. */
MechanismSpec mechanismSpec(Mechanism m);

/**
 * Canonical composed-spec string for a tuple ("dbi+dawb+clb+lru"); the
 * preset label if the tuple matches a Table 2 preset.
 */
std::string mechanismSpecString(const MechanismSpec &spec);

/**
 * Mechanism from a label: a Table 2 preset name ("DBI+AWB"), or a
 * composed spec of '+'-separated lowercase tokens:
 *
 *   dirty store   tag | wt | dbi     (default tag; inferred dbi for
 *                                     awb/clb/ecc, wt for skip)
 *   writeback     dawb | vwq | awb   (default evict-order)
 *   lookup        skip | clb         (default always-lookup)
 *   metadata      ecc                (hetero-ECC)
 *   replacement   lru                (default TA-DIP or DRRIP)
 *
 * fatal() on unknown names/tokens or invalid combinations, listing the
 * valid presets and this grammar.
 */
MechanismSpec mechanismByName(const std::string &name);

/**
 * Table 2 preset from its exact name; fatal() (with the same help text
 * as mechanismByName) if the name is not a preset. For figure
 * formatters that key off the closed Table 2 set.
 */
Mechanism mechanismPresetByName(const std::string &name);

/** All mechanisms in Table 2 order. */
const std::vector<Mechanism> &allMechanisms();

/**
 * Build an LLC (slice) from a mechanism spec (the one factory every
 * simulation goes through). `predictor` is required iff
 * spec.needsPredictor(); on sliced machines each slice gets its own
 * predictor instance. Metadata attachments are the caller's job (they
 * need the built cache's DBI; see System's constructor).
 */
std::unique_ptr<Llc> makeLlc(const MechanismSpec &spec,
                             const LlcConfig &llc_cfg,
                             const DbiConfig &dbi_cfg,
                             BackingPort &backing, EventQueue &eq,
                             std::shared_ptr<MissPredictor> predictor);

} // namespace dbsim

#endif // DBSIM_SIM_MECHANISM_HH
