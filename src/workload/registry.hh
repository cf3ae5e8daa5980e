/**
 * @file
 * The workload registry: every workload - the paper's Table-3
 * synthetic apps and the data-structure engine's map/set/queue/bank
 * streams - is constructed uniformly by name:
 *
 *   WorkloadBundle b = makeWorkload("ds_map", params, seed, procs);
 *   b.attach(sys);            // or b.attach(bus) for the baseline
 *   RunResult res = sys.run();
 *
 * A bundle is self-contained and detached: per-processor
 * TransactionSources, the memory/page layout (home bindings), initial
 * memory words, and expected-footprint metadata. attach() binds the
 * layout and sources into a System (or a BusTcc baseline, which has
 * no page homing); the bundle must outlive the run.
 *
 * Parameters are uniform key=value string overrides applied on top of
 * the named workload's defaults (e.g. {"theta","0.99"},
 * {"mix","write_heavy"}, {"txns_per_phase","64"}), so CLI flags and
 * bench sweeps need no per-workload structs. Unknown keys are fatal.
 */

#ifndef TCC_WORKLOAD_REGISTRY_HH
#define TCC_WORKLOAD_REGISTRY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "workload/datastruct.hh"
#include "workload/transaction_source.hh"

namespace tcc {

class System;
class BusTcc;

/** Ordered key=value overrides on a workload's default knobs. */
struct WorkloadParams {
    std::vector<std::pair<std::string, std::string>> overrides;

    WorkloadParams &
    set(std::string key, std::string value)
    {
        overrides.emplace_back(std::move(key), std::move(value));
        return *this;
    }

    /** Parse "key=val,key=val" (empty string -> no overrides;
     *  fatal on malformed pairs). */
    static WorkloadParams parse(const std::string &list);
};

/** One contiguous memory region of a workload's layout. */
struct MemRegion {
    std::string label;
    Addr base = 0;
    std::uint64_t bytes = 0;
    /** Home node (ignored when pageRoundRobin). */
    NodeId home = 0;
    /** Bind pages round-robin across all nodes instead. */
    bool pageRoundRobin = false;
};

/** Expected-footprint metadata of a constructed workload. */
struct WorkloadFootprint {
    std::vector<MemRegion> regions;
    /** Committed transactions the run should retire. */
    std::uint64_t expectedTxns = 0;
    /** Logical data-structure ops (0 for synthetic apps). */
    std::uint64_t expectedOps = 0;
    /** Total words across all regions. */
    std::uint64_t dataWords = 0;
};

/** A constructed workload, detached from any machine. */
class WorkloadBundle
{
  public:
    std::string name;
    WorkloadFootprint footprint;
    /** Non-transactional initial memory image. */
    std::vector<std::pair<Addr, std::uint64_t>> initialWords;
    /** One source per processor. */
    std::vector<std::unique_ptr<TransactionSource>> sources;

    /** Bind regions/pages, write initial words, attach sources. */
    void attach(System &sys) const;
    /** Baseline variant: no page homing (single shared bus). */
    void attach(BusTcc &bus) const;

    /** Committed logical ops across all sources (0 for synthetic). */
    std::uint64_t committedOps() const;
    /** Per-phase commit/abort tallies summed across sources (empty
     *  for synthetic apps). */
    std::vector<PhaseTally> phaseTallies() const;
    /** Word address -> key index, or -1 (synthetic apps, control
     *  words). Bench hot-word attribution. */
    std::int64_t keyOf(Addr addr) const;
    /** The data-structure layout, or null for synthetic apps. */
    const DsLayout *layout() const { return dsLayout.get(); }

  private:
    friend WorkloadBundle makeWorkload(const std::string &,
                                       const WorkloadParams &,
                                       std::uint64_t, std::uint32_t);
    static WorkloadBundle makeDs(const std::string &name,
                                 const DataStructParams &prm,
                                 std::uint64_t seed,
                                 std::uint32_t numProcs);
    std::shared_ptr<const DsLayout> dsLayout;
    std::vector<DataStructSource *> dsSources;
};

/** Registry entry metadata. */
struct WorkloadInfo {
    std::string name;
    /** "table3" (synthetic app) or "datastruct". */
    std::string kind;
    std::string description;
};

/** Every registered workload, Table-3 apps first (paper order). */
const std::vector<WorkloadInfo> &workloadInfos();

/** All registered names, in workloadInfos() order. */
std::vector<std::string> workloadNames();

/** Whether @p name is registered. */
bool isWorkload(const std::string &name);

/**
 * Construct workload @p name for @p numProcs processors with
 * @p params overrides applied to its defaults (fatal on unknown
 * name or key). Deterministic in (name, params, seed, numProcs).
 */
WorkloadBundle makeWorkload(const std::string &name,
                            const WorkloadParams &params,
                            std::uint64_t seed,
                            std::uint32_t numProcs);

} // namespace tcc

#endif // TCC_WORKLOAD_REGISTRY_HH
