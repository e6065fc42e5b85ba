// Gate-level garbling schemes.
//
// All three schemes are Free-XOR compatible (XOR/XNOR gates cost nothing)
// and use point-and-permute (the color bit is the label's lsb):
//
//  * kClassic4  — 4 ciphertexts per non-XOR gate (Yao + point-and-permute);
//  * kGrr3      — row reduction (Naor-Pinkas-Sumner): first row forced to
//                 zero, 3 ciphertexts;
//  * kHalfGates — Zahur-Rosulek-Evans: 2 ciphertexts, one fixed-key AES
//                 call per half gate. This is what MAXelerator's GC engine
//                 implements: "one garbled table per clock cycle" means one
//                 half-gates AND table, i.e. two H() evaluations.
//
// A non-XOR gate is garbled in its (alpha, beta, gamma) normal form
// out = ((a^alpha) & (b^beta)) ^ gamma, so AND/NAND/OR/NOR share one path.
//
// The half-gates kernels are n-wide: garble_n/eval_n take a window of
// independent gates (the ANDs of one AND-depth wave, or of one simulator
// clock cycle) and hash all 4n / 2n blocks as one batch, which keeps the
// AES pipeline full the way the hardware's parallel GC cores do. The
// scalar garble/evaluate are the n = 1 case.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "circuit/netlist.hpp"
#include "crypto/block.hpp"
#include "crypto/gc_hash.hpp"

namespace maxel::gc {

using crypto::Block;

enum class Scheme : std::uint8_t { kClassic4, kGrr3, kHalfGates };

[[nodiscard]] constexpr std::size_t rows_per_and(Scheme s) {
  switch (s) {
    case Scheme::kClassic4:
      return 4;
    case Scheme::kGrr3:
      return 3;
    case Scheme::kHalfGates:
      return 2;
  }
  return 0;
}

[[nodiscard]] constexpr std::size_t bytes_per_and(Scheme s) {
  return 16 * rows_per_and(s);
}

[[nodiscard]] constexpr const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kClassic4:
      return "classic4";
    case Scheme::kGrr3:
      return "grr3";
    case Scheme::kHalfGates:
      return "halfgates";
  }
  return "?";
}

// One garbled table; `ct[0..rows_per_and(scheme)-1]` are meaningful.
struct GarbledTable {
  std::array<Block, 4> ct{};

  friend bool operator==(const GarbledTable&, const GarbledTable&) = default;
};

// Stateless gate garbler/evaluator sharing the fixed-key hash and the
// Free-XOR offset delta (lsb(delta) == 1).
class GateGarbler {
 public:
  // Widest window one kernel call hashes as a single batch: kWindow
  // half-gates tables are 4 * kWindow blocks garbled, 2 * kWindow
  // evaluated. Longer windows are split into kWindow-gate chunks.
  static constexpr std::size_t kWindow = 16;

  GateGarbler(Scheme scheme, const Block& delta)
      : scheme_(scheme), delta_(delta), delta2_(delta.gf_double()) {}

  [[nodiscard]] Scheme scheme() const { return scheme_; }
  [[nodiscard]] const Block& delta() const { return delta_; }

  // Garbles one non-XOR gate. a0/b0 are the 0-labels of the inputs,
  // `tweak` must be unique per gate per round with an even low bit
  // (half gates consume tweak and tweak^1). Returns the output 0-label.
  Block garble(const circuit::AndForm& f, const Block& a0, const Block& b0,
               const Block& tweak, GarbledTable& table) const;

  // Evaluates one non-XOR gate from the active labels. Note the truth
  // table is NOT needed to evaluate — only the scheme and the table.
  Block evaluate(const Block& a, const Block& b, const GarbledTable& table,
                 const Block& tweak) const;

  // n-wide kernels over independent gates (no gate of the window reads
  // another's output): gate i has normal form f[i], input labels
  // a[i]/b[i] and tweak tweaks[i]; garble_n writes tables[i] and the
  // output 0-label out0[i], eval_n reads tables[i] and writes the active
  // output label out[i]. Each equals n calls of garble()/evaluate().
  // Half gates hash the whole window as one batch; the row schemes
  // garble gate by gate.
  void garble_n(const circuit::AndForm* f, const Block* a0, const Block* b0,
                const Block* tweaks, GarbledTable* tables, Block* out0,
                std::size_t n) const;
  void eval_n(const Block* a, const Block* b, const GarbledTable* tables,
              const Block* tweaks, Block* out, std::size_t n) const;

 private:
  // Half-gates kernel bodies for n <= kMax gates, one hash batch each;
  // the scalar entry points instantiate them at kMax = 1.
  template <std::size_t kMax>
  void garble_halfgates(const circuit::AndForm* f, const Block* a0,
                        const Block* b0, const Block* tweaks,
                        GarbledTable* tables, Block* out0,
                        std::size_t n) const;
  template <std::size_t kMax>
  void eval_halfgates(const Block* a, const Block* b,
                      const GarbledTable* tables, const Block* tweaks,
                      Block* out, std::size_t n) const;
  Block garble_rows(const circuit::AndForm& f, const Block& a0,
                    const Block& b0, const Block& tweak, bool reduce_row,
                    GarbledTable& table) const;
  Block eval_rows(const Block& a, const Block& b, const GarbledTable& table,
                  const Block& tweak, bool reduce_row) const;

  Scheme scheme_;
  Block delta_;
  Block delta2_;  // 2 * delta in GF(2^128): 2(x ^ delta) == 2x ^ delta2_
  crypto::GcHash hash_;
};

}  // namespace maxel::gc
