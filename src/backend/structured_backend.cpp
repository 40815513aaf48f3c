#include "qols/backend/structured_backend.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "qols/telemetry/registry.hpp"

namespace qols::backend {

namespace {

bool same_amps(const std::vector<Amplitude>& a,
               const std::vector<Amplitude>& b) {
  // Bit-exact comparison: coalescing must never change the represented
  // state, only its factorization into classes.
  return a == b;
}

}  // namespace

StructuredBackend::StructuredBackend(unsigned num_qubits, unsigned index_width)
    : num_qubits_(num_qubits), index_width_(index_width) {
  if (index_width == 0 || index_width >= num_qubits) {
    throw std::invalid_argument(
        "StructuredBackend: index_width must be in [1, num_qubits)");
  }
  if (index_width > 58 || num_qubits - index_width > 16) {
    throw std::invalid_argument(
        "StructuredBackend: index register capped at 58 qubits, tail at 16");
  }
  tail_width_ = num_qubits - index_width;
  index_size_ = std::uint64_t{1} << index_width_;
  sectors_ = std::size_t{1} << tail_width_;
  // |0...0>: index 0 carries the whole state; everything else has a zero
  // tail vector and lives in the rest class.
  AmpClass zero;
  zero.amp.assign(sectors_, Amplitude{0.0, 0.0});
  zero.amp[0] = Amplitude{1.0, 0.0};
  zero.count = 1;
  zero.members.insert(0);
  AmpClass rest;
  rest.amp.assign(sectors_, Amplitude{0.0, 0.0});
  rest.count = index_size_ - 1;
  rest.is_rest = true;
  classes_.push_back(std::move(zero));
  classes_.push_back(std::move(rest));
  peak_classes_ = classes_.size();
}

std::size_t StructuredBackend::explicit_index_count() const noexcept {
  std::size_t n = 0;
  for (const auto& c : classes_) n += c.members.size();
  return n;
}

std::size_t StructuredBackend::find_class(std::uint64_t index) const {
  std::size_t rest = classes_.size();
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i].is_rest) {
      rest = i;
    } else if (classes_[i].members.contains(index)) {
      return i;
    }
  }
  return rest;
}

std::size_t StructuredBackend::isolate(std::uint64_t index) {
  const std::size_t owner = find_class(index);
  AmpClass& c = classes_[owner];
  if (!c.is_rest && c.count == 1) return owner;
  if (c.is_rest) {
    --c.count;
  } else {
    c.members.erase(index);
    --c.count;
  }
  AmpClass single;
  single.amp = c.amp;
  single.count = 1;
  single.members.insert(index);
  classes_.push_back(std::move(single));
  peak_classes_ = std::max(peak_classes_, classes_.size());
  return classes_.size() - 1;
}

void StructuredBackend::coalesce() {
  // Merge identical-amplitude classes (invariant I3). Quadratic in the
  // class count, which I3 itself keeps tiny (A3 peaks at ~6).
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    for (std::size_t j = classes_.size(); j-- > i + 1;) {
      if (!same_amps(classes_[i].amp, classes_[j].amp)) continue;
      // Absorb j into i; if either is the rest class, the survivor is rest
      // (explicit members dissolve into the complement).
      AmpClass& a = classes_[i];
      AmpClass& b = classes_[j];
      a.count += b.count;
      if (a.is_rest || b.is_rest) {
        a.is_rest = true;
        a.members.clear();
      } else if (a.members.size() < b.members.size()) {
        b.members.insert(a.members.begin(), a.members.end());
        a.members = std::move(b.members);
      } else {
        a.members.insert(b.members.begin(), b.members.end());
      }
      classes_.erase(classes_.begin() +
                     static_cast<std::ptrdiff_t>(j));
    }
  }
  // Drop emptied explicit classes (the rest class stays even at count 0 so
  // invariant I1's "exactly one rest class" holds unconditionally).
  std::erase_if(classes_, [](const AmpClass& c) {
    return !c.is_rest && c.count == 0;
  });
  peak_classes_ = std::max(peak_classes_, classes_.size());
}

void StructuredBackend::require_full_index_range(unsigned first, unsigned count,
                                                 const char* op) const {
  if (first != 0 || count != index_width_) {
    throw UnsupportedOperation(
        std::string(op) + " on a sub-range of the index register");
  }
}

unsigned StructuredBackend::tail_bit(unsigned q, const char* op) const {
  if (q < index_width_ || q >= num_qubits_) {
    throw UnsupportedOperation(std::string(op) +
                               " on index-register qubit " + std::to_string(q));
  }
  return q - index_width_;
}

double StructuredBackend::sector_norm(const AmpClass& c) const {
  double s = 0.0;
  for (const Amplitude& a : c.amp) s += std::norm(a);
  return s;
}

// --- structured A3 operators -----------------------------------------------

void StructuredBackend::apply_h_range(unsigned first, unsigned count) {
  require_full_index_range(first, count, "H range");
  // H^{(x)w} is only representable in the direction A3 uses: preparing the
  // uniform superposition from an index-0 product state. That demands all
  // amplitude on index 0 *alone*: the class holding index 0 must be the
  // singleton {0} (a larger class means other indices share its
  // non-trivial amplitude) and every other class must carry nothing.
  const std::size_t zero_class = find_class(0);
  bool product = classes_[zero_class].count == 1;
  for (std::size_t i = 0; product && i < classes_.size(); ++i) {
    product = i == zero_class || sector_norm(classes_[i]) == 0.0;
  }
  if (!product) {
    throw UnsupportedOperation(
        "H range on a state that is not an index-0 product state");
  }
  const double root_m = std::sqrt(static_cast<double>(index_size_));
  AmpClass rest;
  rest.amp = classes_[zero_class].amp;
  for (Amplitude& a : rest.amp) a /= root_m;
  rest.count = index_size_;
  rest.is_rest = true;
  classes_.clear();
  classes_.push_back(std::move(rest));
}

void StructuredBackend::apply_grover_diffusion(unsigned first,
                                               unsigned count) {
  // Same site as the dense adapter: "quantum.diffusion" aggregates the
  // kernel across backends (the backend id is fixed per service/run, so
  // attribution is unambiguous in practice).
  static telemetry::SpanSite site =
      telemetry::SpanSite::resolve("quantum.diffusion");
  telemetry::TraceSpan span(site);
  require_full_index_range(first, count, "Grover diffusion");
  // 2|u><u| - I acts sector-wise: within each tail sector s the index
  // amplitudes reflect about their mean, amp -> 2*mean_s - amp.
  const double inv_m = 1.0 / static_cast<double>(index_size_);
  std::vector<Amplitude> mean(sectors_, Amplitude{0.0, 0.0});
  for (const AmpClass& c : classes_) {
    const double weight = static_cast<double>(c.count);
    for (std::size_t s = 0; s < sectors_; ++s) {
      mean[s] += weight * c.amp[s];
    }
  }
  for (Amplitude& a : mean) a *= inv_m;
  for (AmpClass& c : classes_) {
    for (std::size_t s = 0; s < sectors_; ++s) {
      c.amp[s] = 2.0 * mean[s] - c.amp[s];
    }
  }
  coalesce();
}

void StructuredBackend::apply_on_index_run(IndexOp op, unsigned count,
                                           std::uint64_t offset,
                                           std::span<const std::uint8_t> ones,
                                           unsigned h, unsigned target) {
  for (std::size_t i = 0; i < ones.size(); ++i) {
    if (ones[i] == 0) continue;
    const std::uint64_t index = offset + i;
    switch (op) {
      case IndexOp::kX:
        apply_x_on_index(0, count, index, h);
        break;
      case IndexOp::kZ:
        apply_z_on_index(0, count, index, h);
        break;
      case IndexOp::kCX:
        apply_cx_on_index(0, count, index, h, target);
        break;
    }
  }
}

void StructuredBackend::apply_phase_flip_set(
    std::span<const std::uint64_t> marked) {
  const std::uint64_t index_mask = index_size_ - 1;
  for (std::uint64_t basis : marked) {
    const std::uint64_t i = basis & index_mask;
    const std::size_t s = static_cast<std::size_t>(basis >> index_width_);
    AmpClass& c = classes_[isolate(i)];
    c.amp[s] = -c.amp[s];
  }
  coalesce();
}

void StructuredBackend::apply_x_on_index(unsigned first, unsigned count,
                                         std::uint64_t index,
                                         unsigned target) {
  require_full_index_range(first, count, "X-on-index");
  const std::size_t tbit = std::size_t{1} << tail_bit(target, "X-on-index");
  AmpClass& c = classes_[isolate(index)];
  for (std::size_t s = 0; s < sectors_; ++s) {
    if (!(s & tbit)) std::swap(c.amp[s], c.amp[s | tbit]);
  }
  coalesce();
}

void StructuredBackend::apply_z_on_index(unsigned first, unsigned count,
                                         std::uint64_t index, unsigned h) {
  require_full_index_range(first, count, "Z-on-index");
  const std::size_t hbit = std::size_t{1} << tail_bit(h, "Z-on-index");
  AmpClass& c = classes_[isolate(index)];
  for (std::size_t s = 0; s < sectors_; ++s) {
    if (s & hbit) c.amp[s] = -c.amp[s];
  }
  coalesce();
}

void StructuredBackend::apply_cx_on_index(unsigned first, unsigned count,
                                          std::uint64_t index, unsigned h,
                                          unsigned target) {
  require_full_index_range(first, count, "CX-on-index");
  const std::size_t hbit = std::size_t{1} << tail_bit(h, "CX-on-index");
  const std::size_t tbit = std::size_t{1} << tail_bit(target, "CX-on-index");
  AmpClass& c = classes_[isolate(index)];
  for (std::size_t s = 0; s < sectors_; ++s) {
    if ((s & hbit) && !(s & tbit)) std::swap(c.amp[s], c.amp[s | tbit]);
  }
  coalesce();
}

// --- measurement / probes --------------------------------------------------

double StructuredBackend::probability_one(unsigned q) const {
  if (q >= num_qubits_) {
    throw UnsupportedOperation("probability of out-of-range qubit");
  }
  if (q >= index_width_) {
    const std::size_t bit = std::size_t{1} << (q - index_width_);
    double p = 0.0;
    for (const AmpClass& c : classes_) {
      double sector_mass = 0.0;
      for (std::size_t s = 0; s < sectors_; ++s) {
        if (s & bit) sector_mass += std::norm(c.amp[s]);
      }
      p += static_cast<double>(c.count) * sector_mass;
    }
    return p;
  }
  // Index-register qubit: count members with the bit set per class; the
  // rest class holds the complement of every explicit set.
  const std::uint64_t bit = std::uint64_t{1} << q;
  std::uint64_t explicit_with_bit = 0;
  double p = 0.0;
  double rest_norm = 0.0;
  for (const AmpClass& c : classes_) {
    if (c.is_rest) {
      rest_norm = sector_norm(c);
      continue;
    }
    std::uint64_t with_bit = 0;
    for (std::uint64_t i : c.members) {
      if (i & bit) ++with_bit;
    }
    explicit_with_bit += with_bit;
    p += static_cast<double>(with_bit) * sector_norm(c);
  }
  const std::uint64_t total_with_bit = index_size_ / 2;
  p += static_cast<double>(total_with_bit - explicit_with_bit) * rest_norm;
  return p;
}

bool StructuredBackend::measure(unsigned q, util::Rng& rng) {
  const std::size_t bit = std::size_t{1} << tail_bit(q, "measure");
  const double p1 = probability_one(q);
  // Same draw and comparison as StateVector::measure, so backends consume
  // RNG identically and decisions stay seed-for-seed comparable.
  const bool outcome = rng.uniform01() < p1;
  const double keep_p = outcome ? p1 : 1.0 - p1;
  const double scale = keep_p > 0.0 ? 1.0 / std::sqrt(keep_p) : 0.0;
  for (AmpClass& c : classes_) {
    for (std::size_t s = 0; s < sectors_; ++s) {
      const bool is_one = (s & bit) != 0;
      if (is_one == outcome) {
        c.amp[s] *= scale;
      } else {
        c.amp[s] = Amplitude{0.0, 0.0};
      }
    }
  }
  coalesce();
  return outcome;
}

Amplitude StructuredBackend::amplitude(std::uint64_t basis) const {
  const std::uint64_t i = basis & (index_size_ - 1);
  const std::size_t s = static_cast<std::size_t>(basis >> index_width_);
  if (s >= sectors_) return Amplitude{0.0, 0.0};
  return classes_[find_class(i)].amp[s];
}

double StructuredBackend::norm() const {
  double total = 0.0;
  for (const AmpClass& c : classes_) {
    total += static_cast<double>(c.count) * sector_norm(c);
  }
  return std::sqrt(total);
}

void StructuredBackend::serialize_state(util::serde::ByteWriter& w) const {
  w.u32(num_qubits_);
  w.u32(index_width_);
  w.u64(peak_classes_);
  w.u64(classes_.size());
  for (const AmpClass& c : classes_) {
    w.b(c.is_rest);
    w.u64(c.count);
    for (const Amplitude& a : c.amp) {
      w.f64(a.real());
      w.f64(a.imag());
    }
    // Sorted membership: equal states serialize to equal bytes no matter
    // what insertion order the unordered_set saw.
    std::vector<std::uint64_t> members(c.members.begin(), c.members.end());
    std::sort(members.begin(), members.end());
    w.u64_vec(members);
  }
}

void StructuredBackend::restore_state(util::serde::ByteReader& r) {
  if (r.u32() != num_qubits_ || r.u32() != index_width_) {
    throw util::serde::DecodeError("structured backend: geometry mismatch");
  }
  const std::uint64_t peak = r.u64();
  const std::uint64_t n_classes = r.u64();
  // Each class carries at least sectors_ amplitudes (16 bytes apiece); cap
  // the claimed count before allocating.
  if (n_classes == 0 || n_classes > r.remaining() / (sectors_ * 16)) {
    throw util::serde::DecodeError("structured backend: bad class count");
  }
  std::vector<AmpClass> classes;
  classes.reserve(static_cast<std::size_t>(n_classes));
  std::uint64_t total_count = 0;
  std::size_t rest_classes = 0;
  for (std::uint64_t ci = 0; ci < n_classes; ++ci) {
    AmpClass c;
    c.is_rest = r.b();
    c.count = r.u64();
    c.amp.reserve(sectors_);
    for (std::size_t s = 0; s < sectors_; ++s) {
      const double re = r.f64();
      const double im = r.f64();
      c.amp.emplace_back(re, im);
    }
    const std::vector<std::uint64_t> members = r.u64_vec();
    if (c.is_rest) {
      if (!members.empty()) {
        throw util::serde::DecodeError("structured backend: rest with members");
      }
      ++rest_classes;
    } else {
      if (members.size() != c.count) {
        throw util::serde::DecodeError(
            "structured backend: member count mismatch");
      }
      for (const std::uint64_t m : members) {
        if (m >= index_size_) {
          throw util::serde::DecodeError(
              "structured backend: member out of range");
        }
        c.members.insert(m);
      }
      if (c.members.size() != members.size()) {
        throw util::serde::DecodeError("structured backend: duplicate member");
      }
    }
    total_count += c.count;
    classes.push_back(std::move(c));
  }
  // Invariant I1 before committing anything: exactly one rest class and a
  // full partition of the index range.
  if (rest_classes != 1 || total_count != index_size_) {
    throw util::serde::DecodeError("structured backend: broken partition");
  }
  classes_ = std::move(classes);
  peak_classes_ = std::max<std::size_t>(static_cast<std::size_t>(peak),
                                        classes_.size());
}

}  // namespace qols::backend
