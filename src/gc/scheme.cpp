#include "gc/scheme.hpp"

namespace maxel::gc {
namespace {

constexpr Block with_half(const Block& tweak, bool half) {
  Block t = tweak;
  t.lo ^= half ? 1u : 0u;
  return t;
}

// Stack staging for a kernel window, left uninitialized: Block's member
// initializers would otherwise zero every slot on each call, which costs
// as much as hashing a narrow window.
template <typename T, std::size_t N>
class Staging {
 public:
  T& operator[](std::size_t i) { return data()[i]; }
  T* data() { return reinterpret_cast<T*>(raw_); }

 private:
  alignas(T) unsigned char raw_[N * sizeof(T)];
};

// Tweak-space separation for the classic scheme's derived output label.
constexpr Block derive_tweak(const Block& tweak) {
  Block t = tweak;
  t.hi ^= 0x8000000000000000ull;
  return t;
}

}  // namespace

Block GateGarbler::garble(const circuit::AndForm& f, const Block& a0,
                          const Block& b0, const Block& tweak,
                          GarbledTable& table) const {
  switch (scheme_) {
    case Scheme::kHalfGates: {
      Block out0;
      garble_halfgates<1>(&f, &a0, &b0, &tweak, &table, &out0, 1);
      return out0;
    }
    case Scheme::kClassic4:
      return garble_rows(f, a0, b0, tweak, /*reduce_row=*/false, table);
    case Scheme::kGrr3:
      return garble_rows(f, a0, b0, tweak, /*reduce_row=*/true, table);
  }
  return Block::zero();
}

Block GateGarbler::evaluate(const Block& a, const Block& b,
                            const GarbledTable& table,
                            const Block& tweak) const {
  switch (scheme_) {
    case Scheme::kHalfGates: {
      Block out;
      eval_halfgates<1>(&a, &b, &table, &tweak, &out, 1);
      return out;
    }
    case Scheme::kClassic4:
      return eval_rows(a, b, table, tweak, /*reduce_row=*/false);
    case Scheme::kGrr3:
      return eval_rows(a, b, table, tweak, /*reduce_row=*/true);
  }
  return Block::zero();
}

void GateGarbler::garble_n(const circuit::AndForm* f, const Block* a0,
                           const Block* b0, const Block* tweaks,
                           GarbledTable* tables, Block* out0,
                           std::size_t n) const {
  if (scheme_ != Scheme::kHalfGates) {
    for (std::size_t i = 0; i < n; ++i)
      out0[i] = garble(f[i], a0[i], b0[i], tweaks[i], tables[i]);
    return;
  }
  for (std::size_t i = 0; i < n; i += kWindow) {
    const std::size_t c = n - i < kWindow ? n - i : kWindow;
    garble_halfgates<kWindow>(f + i, a0 + i, b0 + i, tweaks + i, tables + i,
                              out0 + i, c);
  }
}

void GateGarbler::eval_n(const Block* a, const Block* b,
                         const GarbledTable* tables, const Block* tweaks,
                         Block* out, std::size_t n) const {
  if (scheme_ != Scheme::kHalfGates) {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = evaluate(a[i], b[i], tables[i], tweaks[i]);
    return;
  }
  for (std::size_t i = 0; i < n; i += kWindow) {
    const std::size_t c = n - i < kWindow ? n - i : kWindow;
    eval_halfgates<kWindow>(a + i, b + i, tables + i, tweaks + i, out + i, c);
  }
}

// Zahur-Rosulek-Evans half gates: generator half (garbler knows p_b) and
// evaluator half (evaluator knows s_b), each garbled with one H() call.
// Every gate of the window stages its four hash inputs
// 2x ^ t for x in {a, a^delta, b, b^delta} (2(x^delta) = 2x ^ 2delta, so
// each label is doubled once), and the whole window goes through the
// cipher as one batch: the paper's GC cores hash one table each per
// clock in parallel, and AES-NI keeps 8 blocks in flight the same way.
template <std::size_t kMax>
void GateGarbler::garble_halfgates(const circuit::AndForm* f, const Block* a0,
                                   const Block* b0, const Block* tweaks,
                                   GarbledTable* tables, Block* out0,
                                   std::size_t n) const {
  Staging<Block, 4 * kMax> m, h;
  Staging<Block, kMax> a;
  bool pb[kMax];
  for (std::size_t i = 0; i < n; ++i) {
    // Shift the inputs so the gate becomes a plain AND of
    // a' = a ^ alpha, b' = b ^ beta; the output is shifted by gamma.
    a[i] = f[i].alpha ? a0[i] ^ delta_ : a0[i];
    const Block b = f[i].beta ? b0[i] ^ delta_ : b0[i];
    pb[i] = b.lsb();
    m[4 * i] = a[i].gf_double() ^ with_half(tweaks[i], false);
    m[4 * i + 1] = m[4 * i] ^ delta2_;
    m[4 * i + 2] = b.gf_double() ^ with_half(tweaks[i], true);
    m[4 * i + 3] = m[4 * i + 2] ^ delta2_;
  }
  hash_.hash_masked_batch(m.data(), h.data(), 4 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const Block &ha0 = h[4 * i], &ha1 = h[4 * i + 1];
    const Block &hb0 = h[4 * i + 2], &hb1 = h[4 * i + 3];

    // Generator half gate.
    Block tg = ha0 ^ ha1;
    if (pb[i]) tg ^= delta_;
    Block wg = ha0;
    if (a[i].lsb()) wg ^= tg;

    // Evaluator half gate.
    const Block te = hb0 ^ hb1 ^ a[i];
    Block we = hb0;
    if (pb[i]) we ^= te ^ a[i];

    tables[i].ct[0] = tg;
    tables[i].ct[1] = te;
    const Block c0 = wg ^ we;
    out0[i] = f[i].gamma ? c0 ^ delta_ : c0;
  }
}

template <std::size_t kMax>
void GateGarbler::eval_halfgates(const Block* a, const Block* b,
                                 const GarbledTable* tables,
                                 const Block* tweaks, Block* out,
                                 std::size_t n) const {
  Staging<Block, 2 * kMax> m, h;
  for (std::size_t i = 0; i < n; ++i) {
    m[2 * i] = a[i].gf_double() ^ with_half(tweaks[i], false);
    m[2 * i + 1] = b[i].gf_double() ^ with_half(tweaks[i], true);
  }
  hash_.hash_masked_batch(m.data(), h.data(), 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    Block wg = h[2 * i];
    if (a[i].lsb()) wg ^= tables[i].ct[0];
    Block we = h[2 * i + 1];
    if (b[i].lsb()) we ^= tables[i].ct[1] ^ a[i];
    out[i] = wg ^ we;
  }
}

// Classic point-and-permute table (optionally GRR3 row-reduced). Row
// position (sa, sb) = color bits of the active labels.
Block GateGarbler::garble_rows(const circuit::AndForm& f, const Block& a0,
                               const Block& b0, const Block& tweak,
                               bool reduce_row, GarbledTable& table) const {
  const bool pa = a0.lsb();
  const bool pb = b0.lsb();
  const auto gate_out = [&f](bool va, bool vb) {
    return ((va != f.alpha) && (vb != f.beta)) != f.gamma;
  };

  // Stage all row hashes (and the classic scheme's derived output label)
  // as one masked batch: m = 4A ^ 2B ^ T per row.
  Block m[5];
  for (int idx = 0; idx < 4; ++idx) {
    const bool va = ((idx >> 1) != 0) != pa;
    const bool vb = ((idx & 1) != 0) != pb;
    const Block a_lab = va ? a0 ^ delta_ : a0;
    const Block b_lab = vb ? b0 ^ delta_ : b0;
    m[idx] = a_lab.gf_double().gf_double() ^ b_lab.gf_double() ^ tweak;
  }
  std::size_t nh = 4;
  if (!reduce_row) {
    m[4] = a0.gf_double().gf_double() ^ b0.gf_double() ^ derive_tweak(tweak);
    nh = 5;
  }
  Block h[5];
  hash_.hash_masked_batch(m, h, nh);

  Block c0;
  if (reduce_row) {
    // Force row (0,0) — inputs (pa, pb) — to all zeros. Row index 0
    // carries exactly the labels (a0^pa*delta, b0^pb*delta).
    c0 = gate_out(pa, pb) ? h[0] ^ delta_ : h[0];
  } else {
    // Derive a pseudorandom output label (deterministic garbling).
    c0 = h[4];
  }

  for (int sa = 0; sa < 2; ++sa) {
    for (int sb = 0; sb < 2; ++sb) {
      const bool va = (sa != 0) != pa;
      const bool vb = (sb != 0) != pb;
      const int idx = 2 * sa + sb;
      if (reduce_row && idx == 0) continue;
      Block c = c0;
      if (gate_out(va, vb)) c ^= delta_;
      const Block e = h[idx] ^ c;
      table.ct[static_cast<std::size_t>(reduce_row ? idx - 1 : idx)] = e;
    }
  }
  return c0;
}

Block GateGarbler::eval_rows(const Block& a, const Block& b,
                             const GarbledTable& table, const Block& tweak,
                             bool reduce_row) const {
  const int idx = 2 * (a.lsb() ? 1 : 0) + (b.lsb() ? 1 : 0);
  const Block h = hash_(a, b, tweak);
  if (reduce_row) {
    if (idx == 0) return h;
    return table.ct[static_cast<std::size_t>(idx - 1)] ^ h;
  }
  return table.ct[static_cast<std::size_t>(idx)] ^ h;
}

}  // namespace maxel::gc
