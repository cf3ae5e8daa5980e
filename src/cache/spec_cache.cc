#include "cache/spec_cache.hh"

#include <algorithm>
#include <bit>
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
      l2Rows(ArenaAllocator<Addr *>(arena)),
      l1Tags(ArenaAllocator<L1Tag>(arena)),
      specSlots(ArenaAllocator<Way>(arena))
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
    l2Rows.assign(l2Sets, nullptr);

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

std::size_t
SpecCache::blockBytes(std::uint32_t ways) const
{
    // One 64-byte host line per tag row at 8 ways, then the records,
    // padded to the arena's alignment: 128 B for a one-line set.
    const std::size_t bytes =
        config.l2Assoc * sizeof(Addr) + ways * sizeof(Line);
    return (bytes + Arena::kAlign - 1) & ~(Arena::kAlign - 1);
}

std::uint32_t
SpecCache::capClass(std::uint32_t ways)
{
    return static_cast<std::uint32_t>(std::bit_width(ways - 1));
}

Addr *
SpecCache::newSet(std::uint32_t ways)
{
    // Line is trivially destructible, so outgrown blocks are reused
    // and the arena reclaims the rest wholesale without a destructor
    // pass.
    static_assert(std::is_trivially_destructible_v<Line>);
    Addr *&head = freeSets[capClass(ways)];
    Addr *row = head;
    if (row)
        head = reinterpret_cast<Addr *>(row[0]);
    else
        row = static_cast<Addr *>(
            arena->allocate(blockBytes(ways), Arena::kAlign));
    Line *lines = linesOf(row);
    for (std::uint32_t w = 0; w < config.l2Assoc; ++w)
        row[w] = w < ways ? kNoTag : kUnbacked;
    for (std::uint32_t w = 0; w < ways; ++w)
        ::new (lines + w) Line{};
    return row;
}

Addr *
SpecCache::growSet(std::uint32_t set, std::uint32_t ways)
{
    Addr *old = l2Rows[set];
    Addr *row = newSet(std::min(2 * ways, config.l2Assoc));
    std::copy(old, old + ways, row);
    std::copy(linesOf(old), linesOf(old) + ways, linesOf(row));
    for (Way &way : specSlots) {
        if (way.tag >= old && way.tag < old + ways) {
            const std::ptrdiff_t w = way.tag - old;
            way = Way{row + w, linesOf(row) + w};
        }
    }
    Addr *&head = freeSets[capClass(ways)];
    old[0] = reinterpret_cast<Addr>(head);
    head = old;
    l2Rows[set] = row;
    return row;
}

SpecCache::Way
SpecCache::find(Addr lineAddr) const
{
    Addr *row = l2Rows[setOf(lineAddr)];
    if (!row)
        return {}; // no fill has landed in this set yet
    for (std::uint32_t w = 0; w < config.l2Assoc; ++w) {
        if (row[w] == lineAddr)
            return Way{&row[w], &linesOf(row)[w]};
    }
    return {};
}

bool
SpecCache::accessL1(Addr lineAddr)
{
    const std::uint32_t set = static_cast<std::uint32_t>(
        (lineAddr / config.lineBytes) & (l1Sets - 1));
    L1Tag *base = &l1Tags[static_cast<std::size_t>(set) * config.l1Assoc];
    // Victim: the last empty way, else the least recently used one.
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < config.l1Assoc; ++w) {
        if (base[w].tag == lineAddr) {
            base[w].lru = ++lruClock;
            return true;
        }
        if (base[w].tag == kNoTag) {
            victim = w;
        } else if (base[victim].tag != kNoTag &&
                   base[w].lru < base[victim].lru) {
            victim = w;
        }
    }
    base[victim] = L1Tag{lineAddr, ++lruClock};
    return false;
}

void
SpecCache::dropL1(Addr lineAddr)
{
    const std::uint32_t set = static_cast<std::uint32_t>(
        (lineAddr / config.lineBytes) & (l1Sets - 1));
    L1Tag *base = &l1Tags[static_cast<std::size_t>(set) * config.l1Assoc];
    for (std::uint32_t w = 0; w < config.l1Assoc; ++w) {
        if (base[w].tag == lineAddr)
            base[w].tag = kNoTag;
    }
}

void
SpecCache::noteSpec(const Way &way)
{
    if (!way.line->inSpecList) {
        way.line->inSpecList = true;
        specSlots.push_back(way);
    }
}

SpecCache::LoadOutcome
SpecCache::load(Addr addr)
{
    ++cacheStats.loads;
    const Addr la = lineAlign(addr);
    const WordMask m = maskFor(addr);

    const Way way = find(la);
    Line *line = way.line;
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
        noteSpec(way);
    }
    line->lru = ++lruClock;

    if (accessL1(la)) {
        ++cacheStats.l1Hits;
        return LoadOutcome{true, config.l1Latency};
    }
    ++cacheStats.l2Hits;
    return LoadOutcome{true, config.l2Latency};
}

SpecCache::StoreOutcome
SpecCache::store(Addr addr)
{
    ++cacheStats.stores;
    const Addr la = lineAlign(addr);
    const WordMask m = maskFor(addr);

    const Way way = find(la);
    Line *line = way.line;
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
    noteSpec(way);

    if (accessL1(la)) {
        ++cacheStats.l1Hits;
        out.latency = config.l1Latency;
    } else {
        ++cacheStats.l2Hits;
        out.latency = config.l2Latency;
    }
    return out;
}

SpecCache::FillOutcome
SpecCache::fill(Addr addr)
{
    const Addr la = lineAlign(addr);
    FillOutcome out;

    if (Line *line = find(la).line) {
        // Ghost or partially valid line: refresh the data words.
        line->valid = fullMask();
        line->lru = ++lruClock;
        accessL1(la);
        ++cacheStats.fills;
        out.ok = true;
        return out;
    }

    const std::uint32_t set = setOf(la);
    Addr *row = l2Rows[set];
    if (!row)
        row = l2Rows[set] = newSet(1);
    Line *lines = linesOf(row);
    std::uint32_t victim = config.l2Assoc; // none yet
    for (std::uint32_t w = 0; w < config.l2Assoc; ++w) {
        if (row[w] == kNoTag) {
            victim = w;
            break;
        }
        if (row[w] == kUnbacked) {
            // The first way the set never used: the victim, as it
            // would be in a set allocated at full associativity.
            row = growSet(set, w);
            lines = linesOf(row);
            victim = w;
            break;
        }
        const Line &cand = lines[w];
        if (cand.sr != 0 || cand.sm != 0)
            continue; // speculative lines are not evictable
        if (victim == config.l2Assoc || cand.lru < lines[victim].lru)
            victim = w;
    }

    if (victim == config.l2Assoc) {
        ++cacheStats.overflows;
        out.overflow = true;
        return out;
    }

    if (row[victim] != kNoTag) {
        if (lines[victim].dirty) {
            out.evictedDirty = true;
            out.evictedAddr = row[victim];
            out.evictedTid = lines[victim].commitTid;
            ++cacheStats.dirtyEvictions;
        }
        dropL1(row[victim]);
    }

    row[victim] = la;
    lines[victim] = Line{};
    lines[victim].valid = fullMask();
    lines[victim].lru = ++lruClock;
    accessL1(la);
    ++cacheStats.fills;
    out.ok = true;
    return out;
}

void
SpecCache::writeSet(std::vector<WriteSetLine> &out) const
{
    out.clear();
    for (const Way &way : specSlots) {
        if (*way.tag != kNoTag && way.line->sm != 0)
            out.push_back(WriteSetLine{*way.tag, way.line->sm});
    }
}

SpecCache::SetSizes
SpecCache::setSizes() const
{
    SetSizes n;
    for (const Way &way : specSlots) {
        if (*way.tag == kNoTag)
            continue;
        n.writeLines += way.line->sm != 0;
        n.readLines += way.line->sr != 0;
    }
    return n;
}

void
SpecCache::commitSpec(Tid tid, bool make_dirty)
{
    for (const Way &way : specSlots) {
        Line &line = *way.line;
        line.inSpecList = false;
        if (*way.tag == kNoTag)
            continue;
        if (line.sm != 0 && make_dirty) {
            line.dirty = true; // now committed data; we are the owner
            line.commitTid = tid;
        }
        line.sr = 0;
        line.sm = 0;
        // Ghost lines (no valid words) with no remaining role free up.
        if (line.valid == 0 && !line.dirty)
            *way.tag = kNoTag;
    }
    specSlots.clear();
}

void
SpecCache::abortSpec()
{
    for (const Way &way : specSlots) {
        Line &line = *way.line;
        line.inSpecList = false;
        if (*way.tag == kNoTag)
            continue;
        // Speculatively written words never became real data.
        line.valid &= ~line.sm;
        line.sr = 0;
        line.sm = 0;
        if (line.valid == 0 && !line.dirty) {
            dropL1(*way.tag);
            *way.tag = kNoTag;
        }
    }
    specSlots.clear();
}

SpecCache::InvOutcome
SpecCache::invalidate(Addr lineAddr, WordMask mask)
{
    InvOutcome out;
    const Way way = find(lineAlign(lineAddr));
    Line *line = way.line;
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
    dropL1(*way.tag);
    if (line->sr == 0 && line->sm == 0) {
        *way.tag = kNoTag;
    } else {
        ++cacheStats.ghostsCreated;
    }
    return out;
}

bool
SpecCache::flushLine(Addr lineAddr)
{
    const Way way = find(lineAlign(lineAddr));
    Line *line = way.line;
    if (!line || !line->dirty)
        return false;
    line->dirty = false;
    line->valid &= line->sm;
    dropL1(*way.tag);
    if (line->sr == 0 && line->sm == 0) {
        *way.tag = kNoTag;
    } else {
        ++cacheStats.ghostsCreated;
    }
    return true;
}

bool
SpecCache::isDirty(Addr lineAddr) const
{
    const Line *line = find(lineAlign(lineAddr)).line;
    return line && line->dirty;
}

bool
SpecCache::present(Addr lineAddr) const
{
    return find(lineAlign(lineAddr)).line != nullptr;
}

WordMask
SpecCache::srMask(Addr lineAddr) const
{
    const Line *line = find(lineAlign(lineAddr)).line;
    return line ? line->sr : 0;
}

WordMask
SpecCache::smMask(Addr lineAddr) const
{
    const Line *line = find(lineAlign(lineAddr)).line;
    return line ? line->sm : 0;
}

Tid
SpecCache::lineCommitTid(Addr lineAddr) const
{
    const Line *line = find(lineAlign(lineAddr)).line;
    return line ? line->commitTid : kInvalidTid;
}

} // namespace tcc
