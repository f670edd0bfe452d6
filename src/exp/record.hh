/**
 * @file
 * The structured result of one sweep point. Every (mechanism, mix,
 * config) simulation — or analytic/custom evaluation — produces exactly
 * one PointRecord; formatters turn ordered record sets back into the
 * paper's human-readable tables, and `--json` streams each record as
 * one JSON Lines row.
 *
 * Records deliberately contain only deterministic fields (no wall-clock
 * timings), so the same SweepSpec and seed yield bit-identical JSONL
 * regardless of `--jobs` (modulo completion order).
 */

#ifndef DBSIM_EXP_RECORD_HH
#define DBSIM_EXP_RECORD_HH

#include <cstdint>
#include <map>
#include <string>

namespace dbsim::exp {

/** One structured result row. */
struct PointRecord
{
    /** Position of the point in its SweepSpec (stable sort key). */
    std::size_t index = 0;

    /** Experiment (bench binary) that produced the record. */
    std::string experiment;

    /** Mechanism label (mechanismName), or a custom label. */
    std::string mechanism;

    /** Workload label ("a+b+c" via mixLabel), or a custom label. */
    std::string mix;

    /** Config-axis coordinates of the point ("alpha" -> "0.25", ...). */
    std::map<std::string, std::string> tags;

    /** Derived results (IPCs, rates, speedups, model outputs). */
    std::map<std::string, double> metrics;

    /** Raw counters from the measurement window. */
    std::map<std::string, std::uint64_t> stats;

    /**
     * Host-side wall-clock measurements, filled by the runner only
     * when RunOptions::profile is on (--profile): the point's phase
     * timings in milliseconds (buildMs / runMs / collectMs for
     * simulated points, evalMs for Custom ones) and the host
     * profiler's attribution under "profile.*" keys (a Custom point
     * copies its own System's). Kept out of `metrics` and serialized
     * under a separate "host" key (omitted when empty) because
     * wall-clock values are non-deterministic: the default record
     * stays bit-identical across --jobs and machines.
     */
    std::map<std::string, double> host;

    /** Metric value; fatal() when the key was never filled. */
    double metric(const std::string &key) const;

    /** Stat value; fatal() when the key was never filled. */
    std::uint64_t stat(const std::string &key) const;

    /** The record as a single JSON object (no trailing newline). */
    std::string toJsonLine() const;
};

} // namespace dbsim::exp

#endif // DBSIM_EXP_RECORD_HH
