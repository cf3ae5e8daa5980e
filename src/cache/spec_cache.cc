#include "cache/spec_cache.hh"

#include <new>
#include <type_traits>

namespace tcc {

namespace {

bool
isPow2(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** First chunk of a cache's private arena: room for a Table-2
 *  hierarchy's L1 tags and L2 set table plus a few dozen L2 sets. */
constexpr std::size_t kOwnArenaFirstChunk = std::size_t{64} << 10;

} // namespace

SpecCache::SpecCache(const CacheConfig &cfg, Arena *arena_)
    : config(cfg),
      ownArena(arena_ ? nullptr
                      : std::make_unique<Arena>(kOwnArenaFirstChunk)),
      arena(arena_ ? arena_ : ownArena.get()),
      l2Ways(ArenaAllocator<Line *>(arena)),
      l1Tags(ArenaAllocator<L1Tag>(arena)),
      specSlots(ArenaAllocator<Line *>(arena))
{
    if (!isPow2(cfg.lineBytes) || cfg.lineBytes < 4)
        fatal("line size must be a power of two >= 4");
    lineWords = cfg.lineBytes / 4;
    if (lineWords > 64)
        fatal("lines longer than 64 words are not supported");

    const std::uint32_t l2_lines = cfg.l2Bytes / cfg.lineBytes;
    if (l2_lines % cfg.l2Assoc != 0)
        fatal("L2 size/assoc mismatch");
    l2Sets = l2_lines / cfg.l2Assoc;
    if (!isPow2(l2Sets))
        fatal("L2 set count must be a power of two");
    l2Ways.assign(l2Sets, nullptr);

    const std::uint32_t l1_lines = cfg.l1Bytes / cfg.lineBytes;
    if (l1_lines % cfg.l1Assoc != 0)
        fatal("L1 size/assoc mismatch");
    l1Sets = l1_lines / cfg.l1Assoc;
    if (!isPow2(l1Sets))
        fatal("L1 set count must be a power of two");
    l1Tags.assign(static_cast<std::size_t>(l1Sets) * cfg.l1Assoc,
                  L1Tag{});
}

WordMask
SpecCache::maskFor(Addr a) const
{
    if (config.granularity == Granularity::Line)
        return fullMask();
    const std::uint32_t word =
        static_cast<std::uint32_t>((a & (config.lineBytes - 1)) / 4);
    return WordMask(1) << word;
}

std::uint32_t
SpecCache::setOf(Addr lineAddr) const
{
    return static_cast<std::uint32_t>(
        (lineAddr / config.lineBytes) & (l2Sets - 1));
}

SpecCache::Line *
SpecCache::allocSet(std::uint32_t set)
{
    Line *&ways = l2Ways[set];
    if (!ways) {
        // Line is trivially destructible, so the arena reclaims the
        // block wholesale without a destructor pass.
        static_assert(std::is_trivially_destructible_v<Line>);
        ways = static_cast<Line *>(arena->allocate(
            config.l2Assoc * sizeof(Line), Arena::kAlign));
        for (std::uint32_t w = 0; w < config.l2Assoc; ++w)
            ::new (ways + w) Line{};
    }
    return ways;
}

SpecCache::Line *
SpecCache::find(Addr lineAddr)
{
    Line *base = l2Ways[setOf(lineAddr)];
    if (!base)
        return nullptr; // no fill has landed in this set yet
    for (std::uint32_t w = 0; w < config.l2Assoc; ++w) {
        if (base[w].allocated && base[w].tag == lineAddr)
            return &base[w];
    }
    return nullptr;
}

const SpecCache::Line *
SpecCache::find(Addr lineAddr) const
{
    return const_cast<SpecCache *>(this)->find(lineAddr);
}

bool
SpecCache::l1Hit(Addr lineAddr) const
{
    const std::uint32_t set = static_cast<std::uint32_t>(
        (lineAddr / config.lineBytes) & (l1Sets - 1));
    const L1Tag *base =
        &l1Tags[static_cast<std::size_t>(set) * config.l1Assoc];
    for (std::uint32_t w = 0; w < config.l1Assoc; ++w) {
        if (base[w].valid && base[w].tag == lineAddr)
            return true;
    }
    return false;
}

void
SpecCache::touchL1(Addr lineAddr)
{
    const std::uint32_t set = static_cast<std::uint32_t>(
        (lineAddr / config.lineBytes) & (l1Sets - 1));
    L1Tag *base = &l1Tags[static_cast<std::size_t>(set) * config.l1Assoc];
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < config.l1Assoc; ++w) {
        if (base[w].valid && base[w].tag == lineAddr) {
            base[w].lru = ++lruClock;
            return;
        }
        if (!base[w].valid) {
            victim = w;
        } else if (base[victim].valid &&
                   base[w].lru < base[victim].lru) {
            victim = w;
        }
    }
    base[victim] = L1Tag{lineAddr, true, ++lruClock};
}

void
SpecCache::dropL1(Addr lineAddr)
{
    const std::uint32_t set = static_cast<std::uint32_t>(
        (lineAddr / config.lineBytes) & (l1Sets - 1));
    L1Tag *base = &l1Tags[static_cast<std::size_t>(set) * config.l1Assoc];
    for (std::uint32_t w = 0; w < config.l1Assoc; ++w) {
        if (base[w].valid && base[w].tag == lineAddr)
            base[w].valid = false;
    }
}

void
SpecCache::noteSpec(Line &line)
{
    if (!line.inSpecList) {
        line.inSpecList = true;
        specSlots.push_back(&line);
    }
}

SpecCache::LoadOutcome
SpecCache::load(Addr addr)
{
    ++cacheStats.loads;
    const Addr la = lineAlign(addr);
    const WordMask m = maskFor(addr);

    Line *line = find(la);
    if (!line || (line->valid & m) != m) {
        ++cacheStats.misses;
        return LoadOutcome{false, 0};
    }

    // Reading a word this transaction already wrote is not a
    // dependence on other transactions; under word granularity we can
    // avoid the false conflict. Line granularity keeps the coarse bit.
    // Solo mode disables SR tracking entirely (the transaction cannot
    // be violated), keeping lines evictable.
    if (srTracking) {
        if (config.granularity == Granularity::Word)
            line->sr |= (m & ~line->sm);
        else
            line->sr |= m;
        noteSpec(*line);
    }
    line->lru = ++lruClock;

    if (l1Hit(la)) {
        ++cacheStats.l1Hits;
        touchL1(la);
        return LoadOutcome{true, config.l1Latency};
    }
    ++cacheStats.l2Hits;
    touchL1(la);
    return LoadOutcome{true, config.l2Latency};
}

SpecCache::StoreOutcome
SpecCache::store(Addr addr)
{
    ++cacheStats.stores;
    const Addr la = lineAlign(addr);
    const WordMask m = maskFor(addr);

    Line *line = find(la);
    if (!line) {
        ++cacheStats.misses;
        return StoreOutcome{false, false, 0};
    }

    StoreOutcome out;
    out.hit = true;
    // First speculative write to a line holding committed dirty data:
    // the old data must be written back to the non-speculative level
    // first (the caller sends the WriteBack message).
    if (line->dirty && line->sm == 0) {
        out.needsWriteBack = true;
        out.writeBackTid = line->commitTid;
        line->dirty = false;
    }
    line->sm |= m;
    line->valid |= m;
    line->lru = ++lruClock;
    noteSpec(*line);

    if (l1Hit(la)) {
        ++cacheStats.l1Hits;
        out.latency = config.l1Latency;
    } else {
        ++cacheStats.l2Hits;
        out.latency = config.l2Latency;
    }
    touchL1(la);
    return out;
}

SpecCache::FillOutcome
SpecCache::fill(Addr addr)
{
    const Addr la = lineAlign(addr);
    FillOutcome out;

    Line *line = find(la);
    if (line) {
        // Ghost or partially valid line: refresh the data words.
        line->valid = fullMask();
        line->lru = ++lruClock;
        touchL1(la);
        ++cacheStats.fills;
        out.ok = true;
        return out;
    }

    Line *base = allocSet(setOf(la));
    Line *victim = nullptr;
    for (std::uint32_t w = 0; w < config.l2Assoc; ++w) {
        Line &cand = base[w];
        if (!cand.allocated) {
            victim = &cand;
            break;
        }
        if (cand.sr != 0 || cand.sm != 0)
            continue; // speculative lines are not evictable
        if (!victim || cand.lru < victim->lru)
            victim = &cand;
    }

    if (!victim) {
        ++cacheStats.overflows;
        out.overflow = true;
        return out;
    }

    if (victim->allocated) {
        if (victim->dirty) {
            out.evictedDirty = true;
            out.evictedAddr = victim->tag;
            out.evictedTid = victim->commitTid;
            ++cacheStats.dirtyEvictions;
        }
        dropL1(victim->tag);
    }

    *victim = Line{};
    victim->tag = la;
    victim->allocated = true;
    victim->valid = fullMask();
    victim->lru = ++lruClock;
    touchL1(la);
    ++cacheStats.fills;
    out.ok = true;
    return out;
}

void
SpecCache::writeSet(std::vector<WriteSetLine> &out) const
{
    out.clear();
    for (const Line *slot : specSlots) {
        const Line &line = *slot;
        if (line.allocated && line.sm != 0)
            out.push_back(WriteSetLine{line.tag, line.sm});
    }
}

std::uint32_t
SpecCache::writeSetLines() const
{
    std::uint32_t n = 0;
    for (const Line *slot : specSlots) {
        const Line &line = *slot;
        if (line.allocated && line.sm != 0)
            ++n;
    }
    return n;
}

std::uint32_t
SpecCache::readSetLines() const
{
    std::uint32_t n = 0;
    for (const Line *slot : specSlots) {
        const Line &line = *slot;
        if (line.allocated && line.sr != 0)
            ++n;
    }
    return n;
}

void
SpecCache::commitSpec(Tid tid, bool make_dirty)
{
    for (Line *slot : specSlots) {
        Line &line = *slot;
        if (!line.allocated) {
            line.inSpecList = false;
            continue;
        }
        if (line.sm != 0 && make_dirty) {
            line.dirty = true; // now committed data; we are the owner
            line.commitTid = tid;
        }
        line.sr = 0;
        line.sm = 0;
        line.inSpecList = false;
        // Ghost lines (no valid words) with no remaining role free up.
        if (line.valid == 0 && !line.dirty)
            line.allocated = false;
    }
    specSlots.clear();
}

void
SpecCache::abortSpec()
{
    for (Line *slot : specSlots) {
        Line &line = *slot;
        if (!line.allocated) {
            line.inSpecList = false;
            continue;
        }
        // Speculatively written words never became real data.
        line.valid &= ~line.sm;
        line.sr = 0;
        line.sm = 0;
        line.inSpecList = false;
        if (line.valid == 0 && !line.dirty) {
            dropL1(line.tag);
            line.allocated = false;
        }
    }
    specSlots.clear();
}

SpecCache::InvOutcome
SpecCache::invalidate(Addr lineAddr, WordMask mask)
{
    InvOutcome out;
    Line *line = find(lineAlign(lineAddr));
    if (!line)
        return out;

    out.srOverlap = (line->sr & mask) != 0;
    out.smOverlap = (line->sm & mask) != 0;

    // Drop the committed data, but keep (a) speculatively written words
    // - they are this transaction's own pending values - and (b) the
    // SR/SM bits as a ghost so later invalidations still see the read
    // set.
    line->valid &= line->sm;
    line->dirty = false;
    dropL1(line->tag);
    if (line->sr == 0 && line->sm == 0) {
        line->allocated = false;
    } else {
        ++cacheStats.ghostsCreated;
    }
    return out;
}

bool
SpecCache::flushLine(Addr lineAddr)
{
    Line *line = find(lineAlign(lineAddr));
    if (!line || !line->dirty)
        return false;
    line->dirty = false;
    line->valid &= line->sm;
    dropL1(line->tag);
    if (line->sr == 0 && line->sm == 0) {
        line->allocated = false;
    } else {
        ++cacheStats.ghostsCreated;
    }
    return true;
}

bool
SpecCache::isDirty(Addr lineAddr) const
{
    const Line *line = find(lineAlign(lineAddr));
    return line && line->dirty;
}

bool
SpecCache::present(Addr lineAddr) const
{
    return find(lineAlign(lineAddr)) != nullptr;
}

WordMask
SpecCache::srMask(Addr lineAddr) const
{
    const Line *line = find(lineAlign(lineAddr));
    return line ? line->sr : 0;
}

WordMask
SpecCache::smMask(Addr lineAddr) const
{
    const Line *line = find(lineAlign(lineAddr));
    return line ? line->sm : 0;
}

Tid
SpecCache::lineCommitTid(Addr lineAddr) const
{
    const Line *line = find(lineAlign(lineAddr));
    return line ? line->commitTid : kInvalidTid;
}

} // namespace tcc
