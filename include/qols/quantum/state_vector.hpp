#pragma once
// Dense state-vector simulator.
//
// The paper's online machine touches only O(log n) qubits (2k+2 data qubits
// plus O(k) compiler ancillas), so exact dense simulation is the faithful
// substitute for physical hardware: every amplitude evolves exactly per the
// unitary postulate and measurement statistics are computed from |amp|^2.
//
// Performance notes (hpc): amplitudes are stored structure-of-arrays — one
// contiguous `re[]` and one contiguous `im[]` buffer — so gate kernels are
// straight-line loops over disjoint scalar arrays with no interleaved
// real/imag access pattern. The hot kernels (H, X, Z, phase, reflect-zero,
// the diffusion's mean reflection, MCZ, probability/measure) run as blocked
// contiguous-run loops. Each has one source, a scalar template, built twice:
// at the baseline ISA, and as an AVX2 clone (target("avx2"), vectorized by
// the compiler) that runtime dispatch selects (see SimdMode below). Only the
// fused radix-4 H butterfly keeps hand-written AVX2 intrinsics. The two
// builds are bit-identical, probability and mean reductions included.
// Kernels are data-parallel over the project ThreadPool with a grain chosen
// so registers below ~2^14 amplitudes run serially. Every
// pattern-controlled gate (CNOT, CZ, MCX, MCZ and the streaming oracles of
// procedure A3: V_x, W_y, R_y driven by single input bits) enumerates only
// its matching amplitudes; A3's oracles fix the whole index register, so
// each touches O(1) amplitudes. A3 applies them over a whole run of input
// bits at once through the *_on_index_run forms: the run's 0/1 bytes are the
// mask of one sequential pass over contiguous amplitude ranges.
//
// Precision: the simulator is a class template on the amplitude scalar.
// `StateVector` (double) is the reference; `StateVectorF` (float) is the
// opt-in fast mode — half the memory traffic, twice the SIMD lanes. The
// probability/measurement pipeline accumulates in double in BOTH modes, so
// measurement *decisions* remain seed-for-seed comparable even when float
// amplitudes carry rounding (the precision/tolerance contract is spelled out
// in docs/ARCHITECTURE.md and enforced by tests/test_precision_differential).

#include <cassert>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

#include "qols/util/rng.hpp"

namespace qols::quantum {

using Amplitude = std::complex<double>;

/// Amplitude scalar width of the dense simulator. Threaded from user-facing
/// knobs (RecognizerSpec::float_amplitudes, qols_bench --precision) down to
/// the backend factory; the structured backend is double-only and documents
/// that it ignores the request.
enum class Precision {
  kDouble = 0,  ///< reference semantics; every differential baseline
  kSingle = 1,  ///< opt-in fast mode: float amplitudes, double accumulation
};

/// "double" / "float".
std::string_view precision_name(Precision p) noexcept;

/// Kernel instruction-set dispatch. kAuto (the default) resolves to kAvx2
/// when the CPU supports it and the QOLS_NO_AVX2 environment override is not
/// set, else to kScalar. set_simd_mode(kScalar / kAvx2) forces a path at
/// runtime (benchmark rows, dispatch-agreement tests).
enum class SimdMode {
  kAuto = 0,
  kScalar = 1,
  kAvx2 = 2,
};

/// True when this CPU can execute the AVX2 kernels.
bool cpu_supports_avx2() noexcept;

/// Forces the kernel path. Throws std::invalid_argument for kAvx2 on a CPU
/// without AVX2. Process-global; intended for benchmarks and tests, not for
/// concurrent mutation while kernels run.
void set_simd_mode(SimdMode mode);

/// The last value passed to set_simd_mode (kAuto initially).
SimdMode requested_simd_mode() noexcept;

/// The path kernels will actually take right now: kScalar or kAvx2, never
/// kAuto.
SimdMode active_simd_mode() noexcept;

/// QOLS_NO_AVX2 parsing rule, exposed for tests: disabled when the value is
/// non-null, non-empty and not "0". The environment is read once per
/// process (CI's scalar-fallback leg sets it before launch); use
/// set_simd_mode for in-process switching.
bool simd_env_disabled(const char* value) noexcept;

/// A control condition: `qubit` must be in basis state `value`.
struct ControlTerm {
  unsigned qubit;
  bool value;
};

/// Allocator of the register halves: 64-byte (cache-line) aligned, so a
/// 32-byte AVX2 access never straddles two lines. With operator new's
/// 16-byte alignment, where a register landed (and how fast its kernels
/// ran) depended on the sizes of unrelated earlier heap allocations.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, kAlign); }

  template <typename U>
  bool operator==(const CacheLineAllocator<U>&) const noexcept {
    return true;
  }
};

/// Exact n-qubit pure state, little-endian (qubit q is bit q of the basis
/// index). Starts in |0...0>. `Scalar` is the amplitude component type;
/// see the Precision notes above.
template <typename Scalar>
class StateVectorT {
  static_assert(std::is_same_v<Scalar, double> || std::is_same_v<Scalar, float>,
                "StateVectorT supports double and float amplitudes");

 public:
  using scalar_type = Scalar;

  /// Constructs |0...0> on `num_qubits` qubits. Supports up to 30 qubits
  /// (16 GiB of double amplitudes); the library never needs more than ~24.
  explicit StateVectorT(unsigned num_qubits);

  unsigned num_qubits() const noexcept { return num_qubits_; }
  std::size_t dim() const noexcept { return re_.size(); }

  /// Read-only views of the structure-of-arrays storage.
  std::span<const Scalar> re() const noexcept { return re_; }
  std::span<const Scalar> im() const noexcept { return im_; }

  /// One amplitude, widened to the double-based Amplitude type.
  Amplitude amplitude(std::size_t basis) const noexcept {
    return Amplitude{static_cast<double>(re_[basis]),
                     static_cast<double>(im_[basis])};
  }

  /// Materialized array-of-structs copy of the state (widened to double).
  /// O(dim) allocation — a probe for tests and reference comparisons, not a
  /// kernel input; kernels read the SoA spans.
  std::vector<Amplitude> amplitudes() const {
    std::vector<Amplitude> out;
    out.reserve(dim());
    for (std::size_t i = 0; i < dim(); ++i) out.push_back(amplitude(i));
    return out;
  }

  /// Resets to |0...0>.
  void reset();

  /// Sets the state to |basis>.
  void set_basis_state(std::size_t basis);

  /// Overwrites the register with externally supplied SoA amplitudes
  /// (snapshot restore). Both spans must match dim() exactly; the values
  /// are copied verbatim, so a restored register is bit-identical to the
  /// serialized one. Throws std::invalid_argument on a size mismatch.
  void load(std::span<const Scalar> re, std::span<const Scalar> im) {
    if (re.size() != dim() || im.size() != dim()) {
      throw std::invalid_argument("StateVectorT::load: dimension mismatch");
    }
    re_.assign(re.begin(), re.end());
    im_.assign(im.begin(), im.end());
  }

  // --- one-qubit gates -----------------------------------------------------
  void apply_h(unsigned q);
  void apply_x(unsigned q);
  void apply_z(unsigned q);
  /// T = diag(1, e^{i pi/4}); the paper's G1.
  void apply_t(unsigned q);
  void apply_tdg(unsigned q);
  void apply_s(unsigned q);
  void apply_sdg(unsigned q);
  /// diag(1, phase).
  void apply_phase(unsigned q, Amplitude phase);
  /// Arbitrary 2x2 unitary [[u00,u01],[u10,u11]].
  void apply_single(unsigned q, Amplitude u00, Amplitude u01, Amplitude u10,
                    Amplitude u11);

  // --- two-qubit gates -----------------------------------------------------
  void apply_cnot(unsigned control, unsigned target);
  void apply_cz(unsigned a, unsigned b);
  void apply_swap(unsigned a, unsigned b);

  // --- multi-controlled gates (pattern controls) ---------------------------
  /// X on `target` conditioned on every ControlTerm holding.
  void apply_mcx(std::span<const ControlTerm> controls, unsigned target);
  /// Phase flip (-1) on basis states satisfying every ControlTerm.
  void apply_mcz(std::span<const ControlTerm> controls);

  // --- structured operators used by the paper's procedure A3 ---------------
  /// Hadamard on each qubit in [first, first+count): the paper's U_k when
  /// applied to the index register.
  void apply_h_range(unsigned first, unsigned count);

  /// The paper's S_k on the index register [first, first+count):
  ///   |i> -> -|i| for i != 0, |0> -> |0>   (i.e. 2|0><0| - I on that range).
  void apply_reflect_zero(unsigned first, unsigned count);

  /// Grover's diffusion 2|u><u| - I on the index register [first,
  /// first+count), the operator U_k S_k U_k, applied as a mean reflection:
  /// for each value of the qubits above the register, its 2^count
  /// amplitudes become 2 * mean - amp. Two streaming passes, against 2 *
  /// count butterfly stages for the H form; equal to it in exact arithmetic
  /// and within a few ulps in floating point. The means accumulate in
  /// double in both precisions, in a fixed order (SIMD path and thread
  /// count do not change a bit). Requires first == 0 (contiguous sectors);
  /// throws std::invalid_argument otherwise.
  void apply_mean_reflection(unsigned first, unsigned count);

  /// Diagonal +-1 oracle given explicitly by its marked set: negates the
  /// amplitude of every listed basis state. Cost O(|marked|).
  void apply_phase_flip_set(std::span<const std::uint64_t> marked);

  /// Fast path for V_x driven by one input bit: X on `target` conditioned on
  /// the index register [first, first+count) being exactly |index>. Costs
  /// O(2^free) swaps, free = num_qubits - count - 1, with no per-qubit walk:
  /// O(1) per input bit for A3, whose index register fixes all but one qubit.
  void apply_x_on_index(unsigned first, unsigned count, std::uint64_t index,
                        unsigned target);

  /// Fast path for W_y: phase flip conditioned on index register == |index>
  /// AND qubit `h` == 1. O(2^(num_qubits - count - 1)) negations.
  void apply_z_on_index(unsigned first, unsigned count, std::uint64_t index,
                        unsigned h);

  /// Fast path for R_y: X on `target` conditioned on index register ==
  /// |index> AND qubit `h` == 1. O(2^(num_qubits - count - 2)) swaps.
  void apply_cx_on_index(unsigned first, unsigned count, std::uint64_t index,
                         unsigned h, unsigned target);

  /// The same three oracles over a run of streamed input bits, on an index
  /// register of qubits [0, count): ones[i] (0 or 1) says whether the gate
  /// fires for index offset + i, and offset + ones.size() <= 2^count. Each
  /// is one masked pass over contiguous amplitude ranges per value of the
  /// qubits above the index register, with no per-bit call, and leaves the
  /// register bit-identical to applying the set bits one by one through
  /// apply_{x,z,cx}_on_index (swaps and sign flips are exact).
  void apply_x_on_index_run(unsigned count, std::uint64_t offset,
                            std::span<const std::uint8_t> ones,
                            unsigned target);
  void apply_z_on_index_run(unsigned count, std::uint64_t offset,
                            std::span<const std::uint8_t> ones, unsigned h);
  void apply_cx_on_index_run(unsigned count, std::uint64_t offset,
                             std::span<const std::uint8_t> ones, unsigned h,
                             unsigned target);

  // --- measurement / inspection --------------------------------------------
  /// P[measuring qubit q yields 1]. Accumulated in double in both precision
  /// modes (the decision-exactness half of the precision contract).
  double probability_one(unsigned q) const;

  /// Projective measurement of qubit q in the computational basis; collapses
  /// and renormalizes the state. Draws exactly one uniform01() from `rng`.
  /// Returns the outcome.
  bool measure(unsigned q, util::Rng& rng);

  /// Samples a full computational-basis measurement without collapsing.
  std::size_t sample_basis(util::Rng& rng) const;

  /// L2 norm of the state (should be 1 up to rounding; tested invariant).
  /// Accumulated in double in both precision modes.
  double norm() const;

  /// <this|other>; both states must have equal dimension. Mixed-precision
  /// operands are explicitly supported: every term is widened to double
  /// before multiply-accumulate, so <double|float> equals the inner product
  /// with the float state's exactly-promoted double copy — no silent
  /// float-precision contamination of the comparison itself.
  template <typename OtherScalar>
  Amplitude inner_product(const StateVectorT<OtherScalar>& other) const {
    assert(dim() == other.dim());
    const std::span<const OtherScalar> ore = other.re();
    const std::span<const OtherScalar> oim = other.im();
    double acc_r = 0.0;
    double acc_i = 0.0;
    for (std::size_t i = 0; i < dim(); ++i) {
      const double xr = static_cast<double>(re_[i]);
      const double xi = static_cast<double>(im_[i]);
      const double yr = static_cast<double>(ore[i]);
      const double yi = static_cast<double>(oim[i]);
      acc_r += xr * yr + xi * yi;  // conj(this) * other
      acc_i += xr * yi - xi * yr;
    }
    return Amplitude{acc_r, acc_i};
  }

  /// |<this|other>|^2 — global-phase-insensitive agreement measure. Same
  /// mixed-precision contract as inner_product.
  template <typename OtherScalar>
  double fidelity(const StateVectorT<OtherScalar>& other) const {
    return std::norm(inner_product(other));
  }

 private:
  /// Negates every basis state i with (i & mask) == want: shared core of
  /// MCZ, CZ, the reflect-zero fixup and W_y.
  void negate_matching(std::size_t mask, std::size_t want);

  /// Swaps amplitudes i and i | tbit for every i with (i & mask) == want and
  /// bit tbit clear (mask excludes tbit): shared core of MCX, CNOT, V_x and
  /// R_y. Both kernels touch only the matching amplitudes.
  void swap_matching(std::size_t mask, std::size_t want, std::size_t tbit);

  /// Run forms of the two, for the *_on_index_run oracles. For every base b
  /// with (b & mask) == want, a zero index field [0, count) and bit tbit
  /// clear, and every r with ones[r] != 0: swap amplitudes b + offset + r
  /// and b + offset + r + tbit (resp. negate b + offset + r).
  void swap_on_index_run(unsigned count, std::uint64_t offset,
                         std::span<const std::uint8_t> ones, std::size_t mask,
                         std::size_t want, std::size_t tbit);
  void negate_on_index_run(unsigned count, std::uint64_t offset,
                           std::span<const std::uint8_t> ones,
                           std::size_t mask, std::size_t want);

  unsigned num_qubits_;
  std::vector<Scalar, CacheLineAllocator<Scalar>> re_;
  std::vector<Scalar, CacheLineAllocator<Scalar>> im_;
};

/// The reference (double) simulator — the type the rest of the library names.
using StateVector = StateVectorT<double>;
/// The opt-in float fast mode.
using StateVectorF = StateVectorT<float>;

extern template class StateVectorT<double>;
extern template class StateVectorT<float>;

}  // namespace qols::quantum
