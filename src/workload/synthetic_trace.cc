#include "synthetic_trace.hh"

#include <cmath>

#include "common/logging.hh"

namespace dbsim {

namespace {

std::uint64_t
hashName(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (char c : s) {
        h ^= static_cast<std::uint64_t>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace

SyntheticTrace::SyntheticTrace(const BenchProfile &profile,
                               std::uint32_t core_id, std::uint64_t seed)
    : prof(profile),
      base(static_cast<Addr>(core_id + 1) << 40),
      rng(seed ^ hashName(profile.name) ^
          (static_cast<std::uint64_t>(core_id) << 17))
{
    fatal_if(prof.memFrac <= 0.0 || prof.memFrac > 1.0,
             "memFrac out of range for %s", prof.name.c_str());
    fatal_if(prof.streamBytes < 2 * kRowBytes *
             (prof.readStreamRows + prof.writeStreamRows),
             "stream region too small for the active-row windows");
    // Uniform jitter around the mean gap keeps memory intensity right
    // without periodic artifacts. Round, not truncate: (1-f)/f is often
    // representable just below the intended integer.
    const double mean_gap = (1.0 - prof.memFrac) / prof.memFrac;
    gapSpan = static_cast<std::uint64_t>(std::llround(2.0 * mean_gap)) + 1;
    initStream(readStream, prof.readStreamRows ? prof.readStreamRows : 1);
    initStream(writeStream,
               prof.writeStreamRows ? prof.writeStreamRows : 1);
}

void
SyntheticTrace::initStream(Stream &st, std::uint32_t rows)
{
    st.rowBase.resize(rows);
    st.rowBlock.assign(rows, 0);
    for (std::uint32_t i = 0; i < rows; ++i) {
        st.rowBase[i] = static_cast<std::uint64_t>(i) * kRowBytes;
    }
    st.nextRowOffset = static_cast<std::uint64_t>(rows) * kRowBytes;
}

Addr
SyntheticTrace::streamNext(Stream &st, Addr region_base)
{
    std::uint32_t r = st.curRow;
    Addr a = base + region_base + st.rowBase[r] +
             static_cast<Addr>(st.rowBlock[r]) * kBlockBytes +
             st.byteInBlock;

    st.byteInBlock += 8;
    if (st.byteInBlock >= kBlockBytes) {
        // Block finished: advance this row's cursor, retire the row if
        // it is fully covered, and hop to a random active row.
        st.byteInBlock = 0;
        if (++st.rowBlock[r] >= kBlocksPerRow) {
            st.rowBlock[r] = 0;
            st.rowBase[r] = st.nextRowOffset;
            st.nextRowOffset =
                (st.nextRowOffset + kRowBytes) % prof.streamBytes;
        }
        st.curRow = static_cast<std::uint32_t>(
            rng.below(st.rowBase.size()));
    }
    return a;
}

Addr
SyntheticTrace::pickAddr(const Mixture &mix, bool is_write)
{
    double r = rng.uniform();
    if (r < mix.hot) {
        return base + kHotBase + rng.below(prof.hotBytes);
    }
    r -= mix.hot;
    if (r < mix.warm) {
        return base + kWarmBase + rng.below(prof.warmBytes);
    }
    r -= mix.warm;
    if (r < mix.stream) {
        return is_write ? streamNext(writeStream, kStreamWBase)
                        : streamNext(readStream, kStreamRBase);
    }
    return base + kColdBase + rng.below(prof.coldBytes);
}

TraceOp
SyntheticTrace::next()
{
    TraceOp op;
    op.gap = static_cast<std::uint32_t>(rng.below(gapSpan));
    op.isWrite = rng.chance(prof.writeFrac);
    op.dependent = !op.isWrite && rng.chance(prof.depFrac);
    op.addr = pickAddr(op.isWrite ? prof.writeMix : prof.readMix,
                       op.isWrite);
    return op;
}

} // namespace dbsim
