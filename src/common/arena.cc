#include "common/arena.hh"

#include <mutex>
#include <utility>

namespace tcc {

namespace {

struct ChunkPool {
    std::mutex lock;
    std::vector<std::pair<std::byte *, std::size_t>> chunks;
    std::size_t bytes = 0;
};

ChunkPool &
pool()
{
    // Never destroyed, so an arena destroyed during static destruction
    // still finds it; pooled chunks stay reachable, not leaked.
    static ChunkPool *p = new ChunkPool;
    return *p;
}

} // namespace

std::byte *
Arena::takePooled(std::size_t bytes)
{
    ChunkPool &p = pool();
    std::lock_guard<std::mutex> g(p.lock);
    for (auto it = p.chunks.rbegin(); it != p.chunks.rend(); ++it) {
        if (it->second == bytes) {
            std::byte *base = it->first;
            p.chunks.erase(std::next(it).base());
            p.bytes -= bytes;
            return base;
        }
    }
    return nullptr;
}

bool
Arena::givePooled(std::byte *base, std::size_t bytes)
{
    ChunkPool &p = pool();
    std::lock_guard<std::mutex> g(p.lock);
    if (p.bytes + bytes > kPoolBytes)
        return false;
    p.chunks.emplace_back(base, bytes);
    p.bytes += bytes;
    return true;
}

std::size_t
Arena::pooledBytes()
{
    ChunkPool &p = pool();
    std::lock_guard<std::mutex> g(p.lock);
    return p.bytes;
}

} // namespace tcc
