#include "runtime/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <type_traits>

namespace lahar {
namespace {

// Index of the power-of-two bucket holding `ns` (0 for ns <= 1).
size_t BucketOf(uint64_t ns) {
  size_t b = 0;
  while (ns > 1) {
    ns >>= 1;
    ++b;
  }
  return b;
}

// Geometric midpoint of bucket b, in nanoseconds.
double BucketMid(size_t b) {
  return std::sqrt(static_cast<double>(1ULL << b) *
                   static_cast<double>(b + 1 < 64 ? (1ULL << (b + 1)) : ~0ULL));
}

// --- generic walkers over the field lists (see runtime/stats.h) ----------

template <class T>
struct IsVector : std::false_type {};
template <class T, class A>
struct IsVector<std::vector<T, A>> : std::true_type {};
template <class T>
struct IsPair : std::false_type {};
template <class A, class B>
struct IsPair<std::pair<A, B>> : std::true_type {};

// Numbers, strings and number vectors print inline as key=value; structs,
// vectors of structs and (name, value) maps print as nested blocks.
template <class T>
constexpr bool IsInline() {
  if constexpr (IsVector<T>::value) {
    return std::is_arithmetic_v<typename T::value_type>;
  } else {
    return std::is_arithmetic_v<T> || std::is_same_v<T, std::string>;
  }
}

// A (name, number) map, printed as one line of name=value pairs.
template <class T>
constexpr bool IsInlineMap() {
  if constexpr (IsVector<T>::value) {
    using E = typename T::value_type;
    if constexpr (IsPair<E>::value) {
      return IsInline<typename E::second_type>();
    }
  }
  return false;
}

template <class T>
std::string Scalar(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
  } else {
    return v;
  }
}

template <class T>
bool IsZero(const T& v);

template <class S>
struct ZeroCheck {
  const S& s;
  bool zero = true;
  void Section(const char*) {}
  template <class M>
  void operator()(const char*, M m, Presence = Presence::kAlways) {
    zero = zero && IsZero(s.*m);
  }
};

// Zero numbers, empty strings and containers of zeros are "zero"; a struct
// is zero when every listed field is.
template <class T>
bool IsZero(const T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    return v == T{};
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v.empty();
  } else if constexpr (IsPair<T>::value) {
    return IsZero(v.second);
  } else if constexpr (IsVector<T>::value) {
    return std::all_of(v.begin(), v.end(),
                       [](const auto& e) { return IsZero(e); });
  } else {
    ZeroCheck<T> check{v};
    T::Fields(check);
    return check.zero;
  }
}

template <class T>
void AppendJson(const T& v, std::string* out);

template <class S>
struct JsonFields {
  const S& s;
  std::string* out;
  bool first = true;
  void Section(const char*) {}
  template <class M>
  void operator()(const char* key, M m, Presence presence = Presence::kAlways) {
    const auto& v = s.*m;
    if (presence == Presence::kWhenNonZero && IsZero(v)) return;
    *out += first ? "\"" : ",\"";
    first = false;
    *out += key;
    *out += "\":";
    AppendJson(v, out);
  }
};

template <class T>
void AppendJson(const T& v, std::string* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out += '"';
    *out += JsonEscape(v);
    *out += '"';
  } else if constexpr (std::is_arithmetic_v<T>) {
    *out += Scalar(v);
  } else if constexpr (IsVector<T>::value) {
    // (name, value) pairs form an object keyed by name; the rest an array.
    constexpr bool kMap = IsPair<typename T::value_type>::value;
    *out += kMap ? '{' : '[';
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) *out += ',';
      if constexpr (kMap) {
        AppendJson(v[i].first, out);
        *out += ':';
        AppendJson(v[i].second, out);
      } else {
        AppendJson(v[i], out);
      }
    }
    *out += kMap ? '}' : ']';
  } else {
    *out += '{';
    T::Fields(JsonFields<T>{v, out});
    *out += '}';
  }
}

template <class T>
std::string RenderText(const T& v, const std::string& label, size_t indent);

// Text form of one struct: a head line `label: key=value ...` at `indent`,
// one line per Section (and per (name, number) map) two columns deeper,
// and nested structs as blocks two columns deeper, all in field-list
// order. A key repeating its line's label drops it ("reorder_depth" prints
// as "depth" on the reorder line); empty strings and all-zero lines are
// left out.
template <class S>
class TextFields {
 public:
  TextFields(const S& s, std::string label, size_t indent)
      : s_(s), indent_(indent) {
    blocks_.push_back({std::move(label), "", false, true});
  }

  void Section(const char* label) {
    if (label == nullptr) {
      cur_ = 0;
      return;
    }
    blocks_.push_back({label, "", false, true});
    cur_ = blocks_.size() - 1;
  }

  template <class M>
  void operator()(const char* key, M m, Presence = Presence::kAlways) {
    const auto& v = s_.*m;
    using T = std::decay_t<decltype(v)>;
    if constexpr (IsInline<T>()) {
      AppendPair(&blocks_[cur_], key, v);
    } else if constexpr (IsInlineMap<T>()) {
      Block line{key, "", false, true};
      for (const auto& [name, x] : v) AppendPair(&line, name, x);
      blocks_.push_back(std::move(line));
    } else if constexpr (IsVector<T>::value) {
      for (const auto& e : v) {
        if constexpr (IsPair<typename T::value_type>::value) {
          Nested(e.second, key + (" " + e.first));
        } else {
          Nested(e, key);
        }
      }
    } else {
      Nested(v, key);
    }
  }

  std::string Finish() const {
    std::string out;
    for (size_t i = 0; i < blocks_.size(); ++i) {
      const Block& b = blocks_[i];
      if (!b.line) {
        out += b.text;
      } else if (b.nonzero) {
        out.append(i == 0 ? indent_ : indent_ + 2, ' ');
        out += b.label + ":" + b.text + "\n";
      }
    }
    return out;
  }

 private:
  struct Block {
    std::string label;
    std::string text;
    bool nonzero;
    bool line;  // false: a nested block, already rendered
  };

  template <class T>
  static void AppendPair(Block* b, std::string_view key, const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      if (v.empty()) return;
    }
    if (key.size() > b->label.size() && key[b->label.size()] == '_' &&
        key.substr(0, b->label.size()) == b->label) {
      key.remove_prefix(b->label.size() + 1);
    }
    b->text += ' ';
    b->text += key;
    b->text += '=';
    if constexpr (IsVector<T>::value) {
      b->text += '[';
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0) b->text += ' ';
        b->text += Scalar(v[i]);
      }
      b->text += ']';
    } else {
      b->text += Scalar(v);
    }
    b->nonzero = b->nonzero || !IsZero(v);
  }

  template <class T>
  void Nested(const T& v, const std::string& label) {
    blocks_.push_back({"", RenderText(v, label, indent_ + 2), false, false});
  }

  const S& s_;
  size_t indent_;
  std::vector<Block> blocks_;
  size_t cur_ = 0;
};

template <class T>
std::string RenderText(const T& v, const std::string& label, size_t indent) {
  TextFields<T> text(v, label, indent);
  T::Fields(text);
  return text.Finish();
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

void LatencyRecorder::Record(uint64_t ns) {
  ++counts_[std::min(BucketOf(ns), kBuckets - 1)];
  ++count_;
  min_ns_ = std::min(min_ns_, ns);
  max_ns_ = std::max(max_ns_, ns);
  sum_ns_ += static_cast<double>(ns);
}

LatencySummary LatencyRecorder::Summarize() const {
  LatencySummary s;
  s.count = count_;
  if (count_ == 0) return s;
  s.min_us = static_cast<double>(min_ns_) / 1000.0;
  s.max_us = static_cast<double>(max_ns_) / 1000.0;
  s.mean_us = sum_ns_ / static_cast<double>(count_) / 1000.0;
  auto percentile = [&](double p) {
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p * static_cast<double>(count_)));
    rank = std::max<uint64_t>(rank, 1);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen >= rank) {
        // Clamp the histogram estimate into the observed range.
        return std::min(static_cast<double>(max_ns_),
                        std::max(static_cast<double>(min_ns_),
                                 BucketMid(b))) /
               1000.0;
      }
    }
    return s.max_us;
  };
  s.p50_us = percentile(0.50);
  s.p99_us = percentile(0.99);
  return s;
}

void LatencyRecorder::Reset() { *this = LatencyRecorder(); }

std::string RuntimeStats::ToString() const {
  return RenderText(*this, "runtime", 0);
}

std::string RuntimeStats::ToJson() const {
  std::string out;
  AppendJson(*this, &out);
  return out;
}

}  // namespace lahar
