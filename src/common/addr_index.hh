/**
 * @file
 * Open-addressed map from block address to a 32-bit slot id, for the
 * per-miss tables of the memory hierarchy (core MSHRs, LLC pending
 * reads, the DRAM write buffer's membership set). Unlike
 * std::unordered_map it stores entries inline, so once the table has
 * grown to its high-water mark inserts and erases allocate nothing. It
 * is never iterated, so its layout cannot perturb simulated behaviour.
 */

#ifndef DBSIM_COMMON_ADDR_INDEX_HH
#define DBSIM_COMMON_ADDR_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "types.hh"

namespace dbsim {

/**
 * Linear-probing hash map Addr -> std::uint32_t with backward-shift
 * deletion (no tombstones), kept at most half full. Keys must not be
 * kInvalidAddr, which marks an empty cell.
 */
class AddrIndex
{
  public:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    AddrIndex() { rehash(16); }

    std::size_t size() const { return count; }

    /** Value stored for key, or kNone. */
    std::uint32_t
    find(Addr key) const
    {
        for (std::size_t i = home(key);; i = (i + 1) & mask) {
            const Cell &c = cells[i];
            if (c.key == key) {
                return c.value;
            }
            if (c.key == kInvalidAddr) {
                return kNone;
            }
        }
    }

    bool contains(Addr key) const { return find(key) != kNone; }

    /** Insert key -> value; false (and no change) if key is present. */
    bool
    insert(Addr key, std::uint32_t value)
    {
        if (2 * (count + 1) > cells.size()) {
            rehash(2 * cells.size());
        }
        for (std::size_t i = home(key);; i = (i + 1) & mask) {
            Cell &c = cells[i];
            if (c.key == key) {
                return false;
            }
            if (c.key == kInvalidAddr) {
                c = Cell{key, value};
                ++count;
                return true;
            }
        }
    }

    /** Set the value of a present key. @pre contains(key) */
    void
    assign(Addr key, std::uint32_t value)
    {
        std::size_t i = home(key);
        while (cells[i].key != key) {
            i = (i + 1) & mask;
        }
        cells[i].value = value;
    }

    /** Remove key; false if it was absent. */
    bool
    erase(Addr key)
    {
        std::size_t i = home(key);
        while (cells[i].key != key) {
            if (cells[i].key == kInvalidAddr) {
                return false;
            }
            i = (i + 1) & mask;
        }
        // Backward-shift: pull later members of the probe run into the
        // hole unless that would move one before its home cell.
        for (std::size_t j = (i + 1) & mask;; j = (j + 1) & mask) {
            if (cells[j].key == kInvalidAddr) {
                break;
            }
            std::size_t h = home(cells[j].key);
            bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
            if (!stays) {
                cells[i] = cells[j];
                i = j;
            }
        }
        cells[i].key = kInvalidAddr;
        --count;
        return true;
    }

  private:
    struct Cell
    {
        Addr key = kInvalidAddr;
        std::uint32_t value = kNone;
    };

    std::size_t
    home(Addr key) const
    {
        // Fibonacci hashing of the block number.
        return static_cast<std::size_t>(
            (blockNumber(key) * 0x9e3779b97f4a7c15ull) >> shift);
    }

    void
    rehash(std::size_t n)
    {
        std::vector<Cell> old = std::move(cells);
        cells.assign(n, Cell{});
        mask = n - 1;
        shift = 64 - floorLog2(n);
        count = 0;
        for (const Cell &c : old) {
            if (c.key != kInvalidAddr) {
                insert(c.key, c.value);
            }
        }
    }

    std::vector<Cell> cells;
    std::size_t mask = 0;
    std::uint32_t shift = 64;
    std::size_t count = 0;
};

} // namespace dbsim

#endif // DBSIM_COMMON_ADDR_INDEX_HH
