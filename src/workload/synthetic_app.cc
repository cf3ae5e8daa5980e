#include "workload/synthetic_app.hh"

#include <algorithm>

namespace tcc {

namespace {

/** Build the eleven Table 3 application profiles. The numeric targets
 *  are reconstructions calibrated to the published 90th-percentile
 *  characteristics and the qualitative behaviour of Section 4.2 (see
 *  EXPERIMENTS.md for the paper-vs-measured comparison). */
std::vector<AppProfile>
buildProfiles()
{
    std::vector<AppProfile> apps;

    {
        // barnes: N-body octree; mid-size transactions, moderate
        // sharing, scales well.
        AppProfile a;
        a.name = "barnes";
        a.instrMedian = 3200;
        a.instrSigma = 0.6;
        a.readWords = 280;
        a.writeWords = 56;
        a.sharedReadFrac = 0.18;
        a.sharedWriteFrac = 0.35;
        a.writeSpreadDirs = 2;
        a.conflictProb = 0.02;
        a.phases = 4;
        a.txnsPerPhase = 640;
        apps.push_back(a);
    }
    {
        // Cluster GA (CEARCH): genetics algorithm; clustered conflicts
        // that hurt at low processor counts.
        AppProfile a;
        a.name = "cluster_ga";
        a.instrMedian = 4200;
        a.instrSigma = 0.5;
        a.readWords = 150;
        a.writeWords = 40;
        a.sharedReadFrac = 0.40;
        a.sharedWriteFrac = 0.50;
        a.writeSpreadDirs = 2;
        a.conflictProb = 0.12;
        a.hotWords = 48;
        a.phases = 4;
        a.txnsPerPhase = 512;
        apps.push_back(a);
    }
    {
        // equake: small transactions (limited parallelism, heavy
        // communication); commit overhead shows at high counts.
        AppProfile a;
        a.name = "equake";
        a.instrMedian = 1100;
        a.instrSigma = 0.4;
        a.readWords = 90;
        a.writeWords = 36;
        a.sharedReadFrac = 0.50;
        a.sharedWriteFrac = 0.50;
        a.writeSpreadDirs = 2;
        a.conflictProb = 0.02;
        a.phases = 6;
        a.txnsPerPhase = 2048;
        apps.push_back(a);
    }
    {
        // radix: large transactions whose writes scatter across every
        // directory (histogram permutation), still scales.
        AppProfile a;
        a.name = "radix";
        a.instrMedian = 30000;
        a.instrSigma = 0.3;
        a.readWords = 600;
        a.writeWords = 560;
        a.sharedReadFrac = 0.12;
        a.sharedWriteFrac = 0.75;
        a.writeSpreadDirs = 0; // all directories
        a.conflictProb = 0.004;
        a.phases = 4;
        a.txnsPerPhase = 256;
        apps.push_back(a);
    }
    {
        // SPECjbb2000: warehouse-local transactions, highest ops per
        // written word, near-linear scaling.
        AppProfile a;
        a.name = "specjbb";
        a.instrMedian = 5200;
        a.instrSigma = 0.4;
        a.readWords = 110;
        a.writeWords = 22;
        a.sharedReadFrac = 0.04;
        a.sharedWriteFrac = 0.15;
        a.writeSpreadDirs = 1;
        a.conflictProb = 0.004;
        a.phases = 2;
        a.txnsPerPhase = 768;
        apps.push_back(a);
    }
    {
        // SVM Classify (CEARCH): large read-mostly transactions,
        // the best-scaling application.
        AppProfile a;
        a.name = "svm_classify";
        a.instrMedian = 36000;
        a.instrSigma = 0.3;
        a.readWords = 750;
        a.writeWords = 80;
        a.sharedReadFrac = 0.10;
        a.sharedWriteFrac = 0.15;
        a.writeSpreadDirs = 1;
        a.conflictProb = 0.002;
        a.phases = 2;
        a.txnsPerPhase = 256;
        apps.push_back(a);
    }
    {
        // swim: stencil with big local write sets, almost no remote
        // communication.
        AppProfile a;
        a.name = "swim";
        a.instrMedian = 42000;
        a.instrSigma = 0.25;
        a.readWords = 850;
        a.writeWords = 320;
        a.sharedReadFrac = 0.04;
        a.sharedWriteFrac = 0.10;
        a.writeSpreadDirs = 1;
        a.conflictProb = 0.0;
        a.phases = 3;
        a.txnsPerPhase = 192;
        apps.push_back(a);
    }
    {
        // tomcatv: mesh generation; like swim with somewhat smaller
        // transactions.
        AppProfile a;
        a.name = "tomcatv";
        a.instrMedian = 19000;
        a.instrSigma = 0.3;
        a.readWords = 550;
        a.writeWords = 230;
        a.sharedReadFrac = 0.07;
        a.sharedWriteFrac = 0.12;
        a.writeSpreadDirs = 1;
        a.conflictProb = 0.0;
        a.phases = 3;
        a.txnsPerPhase = 256;
        apps.push_back(a);
    }
    {
        // volrend: tiny transactions communicating flag variables;
        // lowest ops/word, commit-time limited.
        AppProfile a;
        a.name = "volrend";
        a.instrMedian = 900;
        a.instrSigma = 0.5;
        a.readWords = 70;
        a.writeWords = 90;
        a.sharedReadFrac = 0.50;
        a.sharedWriteFrac = 0.60;
        a.writeSpreadDirs = 2;
        a.conflictProb = 0.05;
        a.hotWords = 64;
        a.phases = 6;
        a.txnsPerPhase = 1536;
        apps.push_back(a);
    }
    {
        // water-nsquared: all-pairs interactions, more communication
        // and synchronization than water-spatial.
        AppProfile a;
        a.name = "water_nsquared";
        a.instrMedian = 2100;
        a.instrSigma = 0.4;
        a.readWords = 130;
        a.writeWords = 32;
        a.sharedReadFrac = 0.40;
        a.sharedWriteFrac = 0.45;
        a.writeSpreadDirs = 2;
        a.conflictProb = 0.04;
        a.phases = 6;
        a.txnsPerPhase = 768;
        apps.push_back(a);
    }
    {
        // water-spatial: spatial decomposition; larger transactions,
        // inherently less communication, scales better.
        AppProfile a;
        a.name = "water_spatial";
        a.instrMedian = 5400;
        a.instrSigma = 0.4;
        a.readWords = 170;
        a.writeWords = 36;
        a.sharedReadFrac = 0.12;
        a.sharedWriteFrac = 0.25;
        a.writeSpreadDirs = 1;
        a.conflictProb = 0.012;
        a.phases = 4;
        a.txnsPerPhase = 640;
        apps.push_back(a);
    }
    return apps;
}

} // namespace

const std::vector<AppProfile> &
appProfiles()
{
    static const std::vector<AppProfile> apps = buildProfiles();
    return apps;
}

// ---------------------------------------------------------------------
// Address layout (byte addresses; the registry page-binds regions)
// ---------------------------------------------------------------------

Addr
SyntheticSource::privateBase(NodeId proc)
{
    return 0x1'0000'0000ull + static_cast<Addr>(proc) * 0x0100'0000ull;
}

Addr
SyntheticSource::sharedBase(NodeId proc)
{
    return 0x8'0000'0000ull + static_cast<Addr>(proc) * 0x0100'0000ull;
}

Addr
SyntheticSource::hotBase()
{
    return 0xF'0000'0000ull;
}

// ---------------------------------------------------------------------
// SyntheticSource
// ---------------------------------------------------------------------

SyntheticSource::SyntheticSource(const AppProfile &profile,
                                 std::uint64_t seed, NodeId proc,
                                 std::uint32_t num_procs)
    : prof(profile),
      rng(seed * 0x9e3779b97f4a7c15ull + proc + 1),
      nodeId(proc), numProcs(num_procs)
{
    const std::uint32_t base = prof.txnsPerPhase / num_procs;
    const std::uint32_t extra =
        proc < (prof.txnsPerPhase % num_procs) ? 1 : 0;
    myTxnsPerPhase = std::max<std::uint32_t>(base + extra, 0);
}

void
SyntheticSource::emitReadRun(std::vector<TxOp> &ops, Addr base,
                             std::uint32_t pool_words,
                             std::uint32_t words)
{
    if (pool_words <= words)
        return;
    const std::uint64_t start = rng.below(pool_words - words);
    for (std::uint32_t i = 0; i < words; ++i)
        ops.push_back(TxOp::load(base + (start + i) * 4));
}

void
SyntheticSource::emitWriteRun(std::vector<TxOp> &ops, Addr base,
                              std::uint32_t pool_words,
                              std::uint32_t words)
{
    if (pool_words <= words)
        return;
    const std::uint64_t start = rng.below(pool_words - words);
    for (std::uint32_t i = 0; i < words; ++i)
        ops.push_back(TxOp::store(base + (start + i) * 4, rng.next()));
}

std::optional<Transaction>
SyntheticSource::nextTransaction()
{
    if (phase >= prof.phases)
        return std::nullopt;

    Transaction txn;
    txn.barrierBefore = (txnInPhase == 0 && phase > 0);

    // --- draw the transaction shape ---------------------------------
    const double raw =
        rng.logNormal(prof.instrMedian, prof.instrSigma);
    const auto instr = static_cast<std::uint64_t>(
        std::clamp(raw, 30.0, 400000.0));
    const auto jitter = [&](std::uint32_t mean) {
        const double v = rng.logNormal(mean, 0.25);
        return static_cast<std::uint32_t>(
            std::clamp(v, 1.0, 4.0 * mean));
    };
    const std::uint32_t reads = jitter(prof.readWords);
    const std::uint32_t writes = jitter(prof.writeWords);
    const std::uint32_t run = std::max<std::uint32_t>(1, prof.runLength);

    const std::uint32_t read_runs = (reads + run - 1) / run;
    const std::uint32_t write_runs = (writes + run - 1) / run;
    const std::uint32_t total_runs = read_runs + write_runs;
    const std::uint64_t mem_ops = reads + writes;
    const std::uint64_t compute_budget =
        instr > mem_ops ? instr - mem_ops : 0;
    const std::uint32_t chunk = static_cast<std::uint32_t>(
        compute_budget / (total_runs + 1));

    // At most one compute chunk per run, plus the hot read-modify-write
    // pair and the trailing compute.
    txn.ops.reserve(mem_ops + total_runs + 3);

    // --- choose this transaction's write-spread slice set ------------
    std::vector<NodeId> write_slices;
    std::uint32_t spread = prof.writeSpreadDirs == 0
                               ? numProcs
                               : std::min(prof.writeSpreadDirs,
                                          numProcs);
    write_slices.reserve(spread);
    write_slices.push_back(nodeId);
    for (std::uint32_t i = 1; i < spread; ++i)
        write_slices.push_back(
            static_cast<NodeId>((nodeId + 1 + rng.below(numProcs)) %
                                numProcs));

    // --- interleave compute chunks with read/write runs --------------
    std::uint32_t reads_left = reads;
    std::uint32_t writes_left = writes;
    std::uint32_t w_slice_idx = 0;
    std::uint64_t compute_emitted = 0;
    while (reads_left > 0 || writes_left > 0) {
        if (chunk > 0 && compute_emitted + chunk <= compute_budget) {
            txn.ops.push_back(TxOp::compute(chunk));
            compute_emitted += chunk;
        }
        // Reads first (typical gather-compute-scatter structure), but
        // interleave so both kinds appear throughout.
        const bool do_read =
            reads_left > 0 &&
            (writes_left == 0 ||
             rng.uniform() <
                 static_cast<double>(reads_left) /
                     static_cast<double>(reads_left + writes_left));
        if (do_read) {
            const std::uint32_t n =
                std::min(run, reads_left);
            if (rng.chance(prof.sharedReadFrac)) {
                // Producer-consumer: read a shifting neighbour's
                // shared slice.
                const NodeId owner = static_cast<NodeId>(
                    (nodeId + 1 + phase + rng.below(numProcs)) %
                    numProcs);
                emitReadRun(txn.ops, sharedBase(owner),
                            prof.sharedWords, n);
            } else if (rng.chance(prof.privateReuse)) {
                emitReadRun(txn.ops, privateBase(nodeId),
                            prof.privateWindow, n);
            } else {
                emitReadRun(txn.ops, privateBase(nodeId),
                            prof.privateWords, n);
            }
            reads_left -= n;
        } else {
            const std::uint32_t n = std::min(run, writes_left);
            if (rng.chance(prof.sharedWriteFrac)) {
                const NodeId slice =
                    write_slices[w_slice_idx++ % write_slices.size()];
                emitWriteRun(txn.ops, sharedBase(slice),
                             prof.sharedWords, n);
            } else if (rng.chance(prof.privateReuse)) {
                emitWriteRun(txn.ops, privateBase(nodeId),
                             prof.privateWindow, n);
            } else {
                emitWriteRun(txn.ops, privateBase(nodeId),
                             prof.privateWords, n);
            }
            writes_left -= n;
        }
    }

    // Contended read-modify-write (reduction variable / flag / lock
    // word equivalent).
    if (prof.hotWords > 0 && rng.chance(prof.conflictProb)) {
        const Addr hot = hotBase() + rng.below(prof.hotWords) * 4;
        txn.ops.push_back(TxOp::load(hot));
        txn.ops.push_back(TxOp::storeAdd(hot, 1));
    }

    if (compute_budget > compute_emitted) {
        txn.ops.push_back(TxOp::compute(static_cast<std::uint32_t>(
            compute_budget - compute_emitted)));
    }

    ++txnsGenerated;
    ++txnInPhase;
    if (txnInPhase >= myTxnsPerPhase) {
        txnInPhase = 0;
        ++phase;
    }
    return txn;
}

} // namespace tcc
