#include "workload/registry.hh"

#include <algorithm>
#include <cstdlib>

#include "busbaseline/bus_tcc.hh"
#include "common/log.hh"
#include "core/system.hh"
#include "workload/synthetic_app.hh"

namespace tcc {

namespace {

std::uint64_t
parseU64(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0')
        fatal("workload override %s: bad integer '%s'", key.c_str(),
              value.c_str());
    return v;
}

std::uint32_t
parseU32(const std::string &key, const std::string &value)
{
    return static_cast<std::uint32_t>(parseU64(key, value));
}

double
parseF64(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        fatal("workload override %s: bad number '%s'", key.c_str(),
              value.c_str());
    return v;
}

/** Overrides on a Table-3 synthetic profile. */
void
applySynthetic(AppProfile &p, const std::string &key,
               const std::string &value)
{
    if (key == "instr_median")
        p.instrMedian = parseF64(key, value);
    else if (key == "instr_sigma")
        p.instrSigma = parseF64(key, value);
    else if (key == "read_words")
        p.readWords = parseU32(key, value);
    else if (key == "write_words")
        p.writeWords = parseU32(key, value);
    else if (key == "run_length")
        p.runLength = parseU32(key, value);
    else if (key == "shared_read_frac")
        p.sharedReadFrac = parseF64(key, value);
    else if (key == "shared_write_frac")
        p.sharedWriteFrac = parseF64(key, value);
    else if (key == "write_spread_dirs")
        p.writeSpreadDirs = parseU32(key, value);
    else if (key == "conflict_prob")
        p.conflictProb = parseF64(key, value);
    else if (key == "hot_words")
        p.hotWords = parseU32(key, value);
    else if (key == "phases")
        p.phases = parseU32(key, value);
    else if (key == "txns_per_phase")
        p.txnsPerPhase = parseU32(key, value);
    else if (key == "max_txns_per_phase")
        p.txnsPerPhase =
            std::min(p.txnsPerPhase, parseU32(key, value));
    else if (key == "private_words")
        p.privateWords = parseU32(key, value);
    else if (key == "shared_words")
        p.sharedWords = parseU32(key, value);
    else if (key == "private_reuse")
        p.privateReuse = parseF64(key, value);
    else if (key == "private_window")
        p.privateWindow = parseU32(key, value);
    else
        fatal("workload '%s': unknown override key '%s'",
              p.name.c_str(), key.c_str());
}

/** Overrides on a data-structure workload. */
void
applyDataStruct(DataStructParams &p, const std::string &name,
                const std::string &key, const std::string &value,
                std::uint32_t num_procs)
{
    if (key == "keys")
        p.numKeys = parseU32(key, value);
    else if (key == "ops_per_txn")
        p.opsPerTxn = parseU32(key, value);
    else if (key == "scan_len")
        p.scanLen = parseU32(key, value);
    else if (key == "compute_per_op")
        p.computePerOp = parseU32(key, value);
    else if (key == "scramble")
        p.scrambleKeys = parseU64(key, value) != 0;
    else if (key == "initial_balance")
        p.initialBalance = parseU64(key, value);
    else if (key == "theta")
        for (auto &ph : p.phases)
            ph.theta = parseF64(key, value);
    else if (key == "mix")
        for (auto &ph : p.phases)
            ph.mix = dsMixPreset(value);
    else if (key == "txns" || key == "txns_per_phase")
        for (auto &ph : p.phases)
            ph.txns = parseU32(key, value);
    else if (key == "max_txns_per_phase")
        for (auto &ph : p.phases)
            ph.txns = std::max(
                std::min(ph.txns, parseU32(key, value)), num_procs);
    else if (key == "phases") {
        const std::uint32_t n = parseU32(key, value);
        if (n == 0)
            fatal("workload '%s': phases must be nonzero",
                  name.c_str());
        // Grow by replicating the last phase's schedule.
        while (p.phases.size() < n)
            p.phases.push_back(p.phases.back());
        p.phases.resize(n);
    } else if (key == "flash_key") {
        p.phases.back().flashKey =
            static_cast<std::int64_t>(parseU64(key, value));
    } else if (key == "flash_frac")
        p.phases.back().flashFrac = parseF64(key, value);
    else
        fatal("workload '%s': unknown override key '%s'",
              name.c_str(), key.c_str());
}

/** Default DataStructParams for each registered ds workload. */
DataStructParams
dsDefaults(const std::string &name)
{
    DataStructParams p;
    if (name == "ds_map") {
        p.structure = DsStructure::Map;
        p.numKeys = 8192;
        p.phases = {
            {4096, 0.8, dsMixPreset("read_mostly"), -1, 0.0}};
    } else if (name == "ds_set") {
        p.structure = DsStructure::Set;
        p.numKeys = 8192;
        p.phases = {{4096, 0.8, dsMixPreset("mixed"), -1, 0.0}};
    } else if (name == "ds_queue") {
        p.structure = DsStructure::Queue;
        p.numKeys = 4096;
        p.opsPerTxn = 4;
        DsMix m;
        m.name = "queue_5050";
        m.lookup = 0.08;
        m.insert = 0.45;
        m.erase = 0.45;
        m.scan = 0.02;
        p.phases = {{4096, 0.0, m, -1, 0.0}};
    } else if (name == "ds_bank") {
        p.structure = DsStructure::Bank;
        p.numKeys = 2048;
        p.opsPerTxn = 2;
        p.scanLen = 8;
        DsMix m;
        m.name = "transfer_heavy";
        m.lookup = 0.10;
        m.insert = 0.85; // transfer
        m.erase = 0.0;
        m.scan = 0.05; // audit
        p.phases = {{4096, 0.9, m, -1, 0.0}};
    } else if (name == "ds_flash") {
        // Phase 0: calm, read-mostly, mild skew. Phase 1: the mix
        // flips write-heavy AND key 17 turns hot (flash crowd) - the
        // abort rate must jump at the barrier.
        p.structure = DsStructure::Map;
        p.numKeys = 8192;
        p.phases = {
            {2048, 0.2, dsMixPreset("read_mostly"), -1, 0.0},
            {2048, 0.2, dsMixPreset("write_heavy"), 17, 0.6},
        };
    } else {
        fatal("unknown data-structure workload '%s'", name.c_str());
    }
    return p;
}

const char *
dsDescription(const std::string &name)
{
    if (name == "ds_map")
        return "Zipfian transactional map, read-mostly";
    if (name == "ds_set")
        return "Zipfian transactional set, mixed ops";
    if (name == "ds_queue")
        return "shared queue: hot head/tail counters";
    if (name == "ds_bank")
        return "bank transfers, skewed hot accounts";
    return "flash crowd: read-mostly flips write-heavy + hot key";
}

const std::vector<std::string> &
dsNames()
{
    static const std::vector<std::string> names = {
        "ds_map", "ds_set", "ds_queue", "ds_bank", "ds_flash"};
    return names;
}

WorkloadBundle
makeSynthetic(const AppProfile &prof, std::uint64_t seed,
              std::uint32_t num_procs)
{
    WorkloadBundle b;
    b.name = prof.name;
    // Region bind order (private/shared per processor, then hot) is
    // part of the run: Registry.MatchesGoldenRadixRun pins it.
    for (NodeId p = 0; p < num_procs; ++p) {
        b.footprint.regions.push_back(
            {"private" + std::to_string(p),
             SyntheticSource::privateBase(p),
             static_cast<std::uint64_t>(prof.privateWords) * 4, p,
             false});
        b.footprint.regions.push_back(
            {"shared" + std::to_string(p),
             SyntheticSource::sharedBase(p),
             static_cast<std::uint64_t>(prof.sharedWords) * 4, p,
             false});
    }
    if (prof.hotWords > 0) {
        b.footprint.regions.push_back(
            {"hot", SyntheticSource::hotBase(),
             static_cast<std::uint64_t>(prof.hotWords) * 4, 0, true});
    }
    b.footprint.expectedTxns =
        static_cast<std::uint64_t>(prof.phases) * prof.txnsPerPhase;
    b.footprint.dataWords =
        static_cast<std::uint64_t>(num_procs) *
            (prof.privateWords + prof.sharedWords) +
        prof.hotWords;
    for (NodeId p = 0; p < num_procs; ++p)
        b.sources.push_back(std::make_unique<SyntheticSource>(
            prof, seed, p, num_procs));
    return b;
}

} // namespace

WorkloadBundle
WorkloadBundle::makeDs(const std::string &name,
                       const DataStructParams &prm,
                       std::uint64_t seed, std::uint32_t num_procs)
{
    WorkloadBundle b;
    b.name = name;
    b.dsLayout = std::make_shared<const DsLayout>(prm, seed);

    const std::uint64_t kv_words =
        static_cast<std::uint64_t>(prm.numKeys) *
        b.dsLayout->strideWords();
    b.footprint.regions.push_back(
        {"kv", DsLayout::kvBase(), kv_words * 4, 0, true});
    b.footprint.dataWords = kv_words;
    if (prm.structure == DsStructure::Queue) {
        b.footprint.regions.push_back(
            {"ctrl", DsLayout::ctrlBase(), 8, 0, false});
        b.footprint.dataWords += 2;
    }
    for (const auto &ph : prm.phases)
        b.footprint.expectedTxns += ph.txns;
    b.footprint.expectedOps =
        b.footprint.expectedTxns * prm.opsPerTxn;

    if (prm.structure == DsStructure::Bank) {
        for (std::uint32_t k = 0; k < prm.numKeys; ++k)
            b.initialWords.emplace_back(b.dsLayout->keyAddr(k),
                                        prm.initialBalance);
    }

    for (NodeId p = 0; p < num_procs; ++p) {
        auto src = std::make_unique<DataStructSource>(
            prm, b.dsLayout, seed, p, num_procs);
        b.dsSources.push_back(src.get());
        b.sources.push_back(std::move(src));
    }
    return b;
}

WorkloadParams
WorkloadParams::parse(const std::string &list)
{
    WorkloadParams p;
    std::size_t pos = 0;
    while (pos < list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string pair = list.substr(pos, comma - pos);
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0)
            fatal("bad workload override '%s' (want key=value)",
                  pair.c_str());
        p.set(pair.substr(0, eq), pair.substr(eq + 1));
        pos = comma + 1;
    }
    return p;
}

const std::vector<WorkloadInfo> &
workloadInfos()
{
    static const std::vector<WorkloadInfo> infos = [] {
        std::vector<WorkloadInfo> v;
        for (const auto &a : appProfiles())
            v.push_back({a.name, "table3",
                         "Table-3 synthetic application"});
        for (const auto &n : dsNames())
            v.push_back({n, "datastruct", dsDescription(n)});
        return v;
    }();
    return infos;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto &i : workloadInfos())
        names.push_back(i.name);
    return names;
}

bool
isWorkload(const std::string &name)
{
    for (const auto &i : workloadInfos())
        if (i.name == name)
            return true;
    return false;
}

WorkloadBundle
makeWorkload(const std::string &name, const WorkloadParams &params,
             std::uint64_t seed, std::uint32_t numProcs)
{
    if (numProcs == 0)
        fatal("makeWorkload: numProcs must be nonzero");
    for (const auto &a : appProfiles()) {
        if (a.name == name) {
            AppProfile prof = a;
            for (const auto &[k, v] : params.overrides)
                applySynthetic(prof, k, v);
            return makeSynthetic(prof, seed, numProcs);
        }
    }
    if (std::find(dsNames().begin(), dsNames().end(), name) ==
        dsNames().end())
        fatal("unknown workload '%s' (see workloadNames())",
              name.c_str());
    DataStructParams prm = dsDefaults(name);
    for (const auto &[k, v] : params.overrides)
        applyDataStruct(prm, name, k, v, numProcs);
    return WorkloadBundle::makeDs(name, prm, seed, numProcs);
}

// ---------------------------------------------------------------------
// WorkloadBundle
// ---------------------------------------------------------------------

void
WorkloadBundle::attach(System &sys) const
{
    const std::uint32_t procs = sys.numProcs();
    const std::uint32_t page = sys.cfg().pageBytes;
    for (const auto &r : footprint.regions) {
        if (r.pageRoundRobin) {
            std::uint32_t i = 0;
            for (Addr a = r.base; a < r.base + r.bytes; a += page)
                sys.bindRegion(a, page, i++ % procs);
        } else {
            sys.bindRegion(r.base, r.bytes, r.home);
        }
    }
    for (const auto &[addr, value] : initialWords)
        sys.initializeWord(addr, value);
    for (NodeId p = 0; p < procs; ++p)
        sys.setSource(p, sources.at(p).get());
}

void
WorkloadBundle::attach(BusTcc &bus) const
{
    for (const auto &[addr, value] : initialWords)
        bus.initializeWord(addr, value);
    for (NodeId p = 0;
         p < static_cast<NodeId>(sources.size()); ++p)
        bus.setSource(p, sources.at(p).get());
}

std::uint64_t
WorkloadBundle::committedOps() const
{
    std::uint64_t ops = 0;
    for (const auto *s : dsSources)
        ops += s->committedOps();
    return ops;
}

std::vector<PhaseTally>
WorkloadBundle::phaseTallies() const
{
    std::vector<PhaseTally> sum;
    for (const auto *s : dsSources) {
        const auto &t = s->phaseTallies();
        if (sum.size() < t.size())
            sum.resize(t.size());
        for (std::size_t i = 0; i < t.size(); ++i) {
            sum[i].commits += t[i].commits;
            sum[i].aborts += t[i].aborts;
        }
    }
    return sum;
}

std::int64_t
WorkloadBundle::keyOf(Addr addr) const
{
    return dsLayout ? dsLayout->keyOf(addr) : -1;
}

} // namespace tcc
