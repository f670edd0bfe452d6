#include "auditor.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "dbi/dbi.hh"
#include "llc/llc.hh"

namespace dbsim::audit {

InvariantAuditor::InvariantAuditor(Llc &llc, const AuditConfig &config)
    : subject(llc), cfg(config), ring(config.traceDepth)
{
    fatal_if(cfg.checkEvery == 0, "auditor checkEvery must be positive");
    subject.attachAuditor(this);
}

InvariantAuditor::~InvariantAuditor()
{
    subject.attachAuditor(nullptr);
}

void
InvariantAuditor::onWritebackIn(Addr block_addr, Cycle when)
{
    ring.push(DirtyEventKind::WritebackIn, block_addr, when);
    ++events;
    ++sinceCheck;
    model.onWritebackIn(block_addr);
}

void
InvariantAuditor::onFill(Addr block_addr, bool dirty, Cycle when)
{
    ring.push(dirty ? DirtyEventKind::FillDirty : DirtyEventKind::Fill,
              block_addr, when);
    ++events;
    ++sinceCheck;
    model.onFill(block_addr, dirty);
}

void
InvariantAuditor::onEviction(Addr block_addr, Cycle when)
{
    ring.push(DirtyEventKind::Eviction, block_addr, when);
    ++events;
    ++sinceCheck;
    if (!model.onEviction(block_addr)) {
        // I4: the mechanism displaced a block whose latest data never
        // reached memory. This is the silent-corruption case the
        // periodic checks could only catch after the fact.
        fail("block evicted while dirty (memory update lost)",
             block_addr);
    }
}

void
InvariantAuditor::onWbToDram(Addr block_addr, Cycle when)
{
    ring.push(DirtyEventKind::WbToDram, block_addr, when);
    ++events;
    ++sinceCheck;
    model.onWbToDram(block_addr);
}

void
InvariantAuditor::onOperationEnd()
{
    if (sinceCheck >= cfg.checkEvery) {
        checkNow();
    }
}

std::vector<Addr>
InvariantAuditor::mechanismDirtyBlocks() const
{
    std::vector<Addr> blocks;
    if (const Dbi *d = subject.dbiIndex()) {
        d->forEachDirtyBlock([&](Addr a) { blocks.push_back(a); });
        return blocks;
    }
    const TagStore &tags = subject.tags();
    for (TagStore::Slot s = 0; s < tags.numBlocks(); ++s) {
        if (tags.validAt(s) && tags.dirtyAt(s)) {
            blocks.push_back(tags.blockAt(s));
        }
    }
    return blocks;
}

void
InvariantAuditor::checkNow()
{
    ++checks;
    sinceCheck = 0;

    const TagStore &tags = subject.tags();
    std::vector<Addr> mech_list = mechanismDirtyBlocks();

    // I1 (mechanism -> shadow) and I2: everything the mechanism calls
    // dirty must be ground-truth dirty and resident.
    for (Addr a : mech_list) {
        if (!model.isDirty(a)) {
            fail("mechanism marks a ground-truth-clean block dirty", a);
        }
        if (!tags.contains(a)) {
            fail("dirty block not resident in the cache", a);
        }
    }

    // I1 (shadow -> mechanism): no dirty block may be forgotten. Both
    // sides hold distinct blocks, so mech ⊆ shadow (checked above) plus
    // equal cardinality proves set equality; the per-block search runs
    // only on the failure path, to name a lost block.
    // The tag store's incremental dirty count must agree with the scan
    // of the authoritative per-entry bits we just did (conventional
    // orgs only; DBI tag stores are checked against zero below).
    if (!subject.dbiIndex() && tags.countDirty() != mech_list.size()) {
        fail("tag store dirty count diverges from its own dirty bits",
             0);
    }

    if (mech_list.size() != model.countDirty()) {
        std::sort(mech_list.begin(), mech_list.end());
        model.forEachDirty([&](Addr a) {
            if (!std::binary_search(mech_list.begin(), mech_list.end(),
                                    a)) {
                fail("mechanism lost a dirty block (update would be "
                     "lost)",
                     a);
            }
        });
        fail("mechanism dirty count diverges from ground truth", 0);
    }

    if (const Dbi *d = subject.dbiIndex()) {
        // I3: the DBI is the only dirty-state source, and its own
        // aggregate count agrees with ground truth. The O(1) count
        // catches any dirty transition routed through the tag store's
        // API; the rotating stripe below re-verifies the per-entry
        // bits themselves across successive checks.
        if (tags.countDirty() != 0) {
            fail("tag store of a DBI cache carries dirty bits", 0);
        }
        std::uint32_t stripe =
            std::max<std::uint32_t>(1, tags.numSets() / 64);
        for (std::uint32_t i = 0; i < stripe; ++i) {
            std::uint32_t s = sweepCursor;
            sweepCursor = (sweepCursor + 1) % tags.numSets();
            for (std::uint32_t w = 0; w < tags.assoc(); ++w) {
                if (tags.dirtyAt(tags.slotOf(s, w))) {
                    fail("tag store of a DBI cache carries dirty bits",
                         tags.blockAt(tags.slotOf(s, w)));
                }
            }
        }
        if (d->countDirtyBlocks() != model.countDirty()) {
            fail("DBI dirty-block count diverges from ground truth", 0);
        }
    }
}

void
InvariantAuditor::fail(const char *what, Addr addr)
{
    // On sliced machines each slice has its own auditor; the shard id
    // in the dump says which slice's event stream follows.
    std::fprintf(stderr, "[shard %u] dirty-state audit failure, "
                         "event trace:\n",
                 cfg.shardId);
    ring.dump(stderr);
    panic("dirty-state audit [shard %u]: %s (block %#llx, after %llu "
          "events, %llu checks)",
          cfg.shardId, what, static_cast<unsigned long long>(addr),
          static_cast<unsigned long long>(events),
          static_cast<unsigned long long>(checks));
}

} // namespace dbsim::audit
