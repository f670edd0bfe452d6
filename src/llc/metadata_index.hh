/**
 * @file
 * MetadataIndex: the seam through which a per-block metadata subsystem
 * (heterogeneous ECC, Section 3.3 of the paper) attaches to the LLC.
 * The paper's generalization of the DBI is that *any* block metadata
 * can live in a separate, differently-organized index; this interface
 * is the code form of that claim. Implementations observe the cache's
 * block lifecycle (fills, reads, dirty transitions, evictions) without
 * perturbing its timing or statistics — like the audit and telemetry
 * observers, a run with a MetadataIndex attached must produce exactly
 * the stats of a run without one. Results are reported out of band via
 * reportMetrics().
 */

#ifndef DBSIM_LLC_METADATA_INDEX_HH
#define DBSIM_LLC_METADATA_INDEX_HH

#include <map>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"

namespace dbsim {

class MetadataIndex
{
  public:
    virtual ~MetadataIndex() = default;

    /** Short identifier, e.g. "ecc" (used in metric keys). */
    virtual const char *name() const = 0;

    /** A block became resident (miss fill or writeback-allocate). */
    virtual void onFill(Addr block_addr, std::uint32_t core, bool dirty,
                        Cycle when) = 0;

    /** A demand read looked up the block (hit or miss). */
    virtual void
    onRead(Addr block_addr, std::uint32_t core, bool hit, Cycle when)
    {
        (void)block_addr;
        (void)core;
        (void)hit;
        (void)when;
    }

    /** The block transitioned clean -> dirty (writeback into the LLC). */
    virtual void onDirty(Addr block_addr, std::uint32_t core,
                         Cycle when) = 0;

    /** The block's dirty data was written back to DRAM (now clean). */
    virtual void onCleaned(Addr block_addr, Cycle when) = 0;

    /** The block was evicted from the cache. */
    virtual void onEviction(Addr block_addr, Cycle when) = 0;

    /** Report end-of-run metrics (keys should be prefixed with name()). */
    virtual void reportMetrics(std::map<std::string, double> &out) const = 0;

    /** Register any counters worth snapshotting. */
    virtual void registerStats(StatSet &set) { (void)set; }
};

} // namespace dbsim

#endif // DBSIM_LLC_METADATA_INDEX_HH
