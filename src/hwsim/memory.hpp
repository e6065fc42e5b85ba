// On-chip table memory model (Sec. 5.1): the FPGA BRAM is split into one
// block per GC core, each with its own write port; a single shared read
// port drains tables to the PCIe bridge.
//
// The model enforces the port constraints cycle-accurately: at most one
// table written per core per cycle, at most one table read per cycle in
// total, bounded capacity per block.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace maxel::hwsim {

class TableMemory {
 public:
  // capacity is per-block, in tables.
  TableMemory(std::size_t num_blocks, std::size_t capacity_tables)
      : capacity_(capacity_tables), fill_(num_blocks, 0),
        last_write_cycle_(num_blocks, UINT64_MAX) {}

  [[nodiscard]] std::size_t num_blocks() const { return fill_.size(); }

  // One core writes one garbled table in `cycle`.
  void write(std::size_t block, std::uint64_t cycle) {
    if (block >= fill_.size())
      throw std::out_of_range("TableMemory::write: bad block");
    if (last_write_cycle_[block] == cycle)
      throw std::logic_error(
          "TableMemory::write: second write to a block in one cycle "
          "(single input port per block)");
    if (fill_[block] == capacity_) {
      ++overflow_stalls_;
      return;  // modeled as a back-pressure stall; tracked, not fatal
    }
    last_write_cycle_[block] = cycle;
    ++fill_[block];
    ++total_fill_;
    ++total_writes_;
    peak_fill_ = std::max(peak_fill_, total_fill_);
  }

  // The PCIe bridge drains one table per cycle through the shared output
  // port, round-robin across non-empty blocks.
  bool drain_one(std::uint64_t cycle) {
    if (cycle == last_read_cycle_)
      throw std::logic_error("TableMemory::drain_one: one output port only");
    if (total_fill_ == 0) return false;
    std::size_t b = drain_cursor_;
    while (fill_[b] == 0) b = next_block(b);
    --fill_[b];
    --total_fill_;
    drain_cursor_ = next_block(b);
    last_read_cycle_ = cycle;
    ++total_reads_;
    return true;
  }

  [[nodiscard]] std::size_t total_fill() const { return total_fill_; }
  [[nodiscard]] std::size_t peak_fill() const { return peak_fill_; }
  [[nodiscard]] std::uint64_t total_writes() const { return total_writes_; }
  [[nodiscard]] std::uint64_t total_reads() const { return total_reads_; }
  [[nodiscard]] std::uint64_t overflow_stalls() const {
    return overflow_stalls_;
  }

 private:
  [[nodiscard]] std::size_t next_block(std::size_t b) const {
    return b + 1 == fill_.size() ? 0 : b + 1;
  }

  std::size_t capacity_;
  std::vector<std::size_t> fill_;
  std::vector<std::uint64_t> last_write_cycle_;
  std::uint64_t last_read_cycle_ = UINT64_MAX;
  std::size_t drain_cursor_ = 0;
  std::size_t total_fill_ = 0;
  std::size_t peak_fill_ = 0;
  std::uint64_t total_writes_ = 0;
  std::uint64_t total_reads_ = 0;
  std::uint64_t overflow_stalls_ = 0;
};

}  // namespace maxel::hwsim
