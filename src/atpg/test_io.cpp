#include "atpg/test_io.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "base/error.h"
#include "base/store/fs_util.h"
#include "base/store/serial.h"

namespace fstg {

namespace {

/// Input-hardening bounds: test files are external input, so a pathological
/// or hostile file fails with a typed ParseError naming the line instead of
/// exhausting memory tokenizing it. The line bound still fits a maximum-
/// length input sequence at full input width.
constexpr std::size_t kMaxLineLength = 64u << 20;
constexpr std::size_t kMaxSequenceLength = 1'000'000;
constexpr std::size_t kMaxTests = 100'000'000;

/// Range-checked integer directive argument (see kiss2_parser.cpp for why
/// from_chars instead of stoi: full-token parse, typed overflow).
int int_field(std::string_view text, const char* what, int line_no,
              long long lo, long long hi) {
  long long v = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [p, ec] = std::from_chars(begin, end, v);
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc() && (v < lo || v > hi)))
    throw ParseError(std::string(what) + " value " + std::string(text) +
                         " out of range [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "]",
                     line_no);
  if (ec != std::errc() || p != end)
    throw ParseError(std::string("bad integer for ") + what, line_no);
  return static_cast<int>(v);
}

std::string binary(std::uint32_t v, int bits) {
  std::string s(static_cast<std::size_t>(bits), '0');
  for (int b = 0; b < bits; ++b)
    if ((v >> b) & 1u) s[static_cast<std::size_t>(bits - 1 - b)] = '1';
  return s;
}

std::uint32_t parse_binary(std::string_view s, int bits, int line) {
  if (static_cast<int>(s.size()) != bits)
    throw ParseError("field `" + std::string(s) + "` is not " +
                         std::to_string(bits) + " bits wide",
                     line);
  std::uint32_t v = 0;
  for (int b = 0; b < bits; ++b) {
    const char c = s[static_cast<std::size_t>(bits - 1 - b)];
    if (c == '1')
      v |= 1u << b;
    else if (c != '0')
      throw ParseError("field `" + std::string(s) + "` is not binary", line);
  }
  return v;
}

/// Ternary input field: 0/1/x per bit, MSB first. An 'x' reads as value 0
/// with the X bit set (the canonical form the simulator uses).
std::pair<std::uint32_t, std::uint32_t> parse_ternary(std::string_view s,
                                                      int bits, int line) {
  if (static_cast<int>(s.size()) != bits)
    throw ParseError("field `" + std::string(s) + "` is not " +
                         std::to_string(bits) + " bits wide",
                     line);
  // Branch-free over the bits: input values are random, so a branch per
  // bit would mispredict half the time.
  std::uint32_t v = 0;
  std::uint32_t x = 0;
  bool bad = false;
  for (int b = 0; b < bits; ++b) {
    const char c = s[static_cast<std::size_t>(bits - 1 - b)];
    const bool one = c == '1';
    const bool unknown = c == 'x' || c == 'X';
    v |= static_cast<std::uint32_t>(one) << b;
    x |= static_cast<std::uint32_t>(unknown) << b;
    bad |= !one && !unknown && c != '0';
  }
  if (bad)
    throw ParseError("field `" + std::string(s) + "` is not ternary (0/1/x)",
                     line);
  return {v, x};
}

/// The whitespace-separated tokens of `line` as views into it: the first
/// three in `tok`, and how many there are in all. Whitespace is the C
/// locale's isspace set (the program never changes locale).
std::size_t split_tokens(std::string_view line, std::string_view (&tok)[3]) {
  const auto space = [](char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  };
  std::size_t n = 0;
  for (std::size_t i = 0; i < line.size();) {
    while (i < line.size() && space(line[i])) ++i;
    std::size_t j = i;
    while (j < line.size() && !space(line[j])) ++j;
    if (j > i) {
      if (n < 3) tok[n] = line.substr(i, j - i);
      ++n;
    }
    i = j;
  }
  return n;
}

/// Input field with X overrides; an X bit prints 'x' regardless of the
/// value bit underneath, so the written form is canonical.
std::string ternary(std::uint32_t v, std::uint32_t x, int bits) {
  std::string s = binary(v, bits);
  for (int b = 0; b < bits; ++b)
    if ((x >> b) & 1u) s[static_cast<std::size_t>(bits - 1 - b)] = 'x';
  return s;
}

}  // namespace

std::string write_test_file(const TestFile& file) {
  std::ostringstream os;
  os << "# functional scan tests";
  if (!file.circuit.empty()) os << " for " << file.circuit;
  os << "\n";
  if (!file.circuit.empty()) os << ".circuit " << file.circuit << "\n";
  os << ".inputs " << file.input_bits << "\n";
  os << ".sv " << file.state_bits << "\n";
  os << ".tests " << file.tests.size() << "\n";
  for (const FunctionalTest& t : file.tests.tests) {
    os << binary(static_cast<std::uint32_t>(t.init_state), file.state_bits)
       << ' ';
    // An empty input sequence (scan-in immediately followed by scan-out)
    // writes as `-`; the parser maps it back to zero vectors.
    if (t.inputs.empty()) os << '-';
    for (std::size_t i = 0; i < t.inputs.size(); ++i) {
      if (i) os << ',';
      os << ternary(t.inputs[i],
                    i < t.input_x.size() ? t.input_x[i] : 0u,
                    file.input_bits);
    }
    os << ' '
       << binary(static_cast<std::uint32_t>(t.final_state), file.state_bits)
       << "\n";
  }
  return os.str();
}

TestFile parse_test_file(const std::string& text) {
  TestFile file;
  int declared_tests = -1;
  int line_no = 0;
  // One pass over the buffer: lines, tokens and input fields are views into
  // it. Lines split as std::getline does: a last line without '\n' counts,
  // a trailing '\n' starts none.
  const std::string_view all(text);
  for (std::size_t at = 0; at < all.size();) {
    const std::size_t nl = std::min(all.find('\n', at), all.size());
    std::string_view raw = all.substr(at, nl - at);
    at = nl + 1;
    ++line_no;
    if (raw.size() > kMaxLineLength)
      throw ParseError("line exceeds " + std::to_string(kMaxLineLength) +
                           " characters",
                       line_no);
    raw = raw.substr(0, raw.find('#'));
    std::string_view tok[3];
    const std::size_t num_tok = split_tokens(raw, tok);
    if (num_tok == 0) continue;

    if (tok[0][0] == '.') {
      if (num_tok < 2) throw ParseError("directive needs an argument", line_no);
      if (tok[0] == ".circuit") {
        file.circuit = std::string(tok[1]);
      } else if (tok[0] == ".inputs") {
        file.input_bits = int_field(tok[1], ".inputs", line_no, 1, 31);
      } else if (tok[0] == ".sv") {
        file.state_bits = int_field(tok[1], ".sv", line_no, 1, 31);
      } else if (tok[0] == ".tests") {
        declared_tests = int_field(tok[1], ".tests", line_no, 0, 100'000'000);
      } else {
        throw ParseError("unknown directive " + std::string(tok[0]), line_no);
      }
      continue;
    }

    if (file.input_bits <= 0 || file.state_bits <= 0)
      throw ParseError("test row before .inputs/.sv", line_no);
    if (num_tok != 3)
      throw ParseError("expected `init inputs final`", line_no);

    FunctionalTest t;
    t.init_state =
        static_cast<int>(parse_binary(tok[0], file.state_bits, line_no));
    if (tok[1] != "-") {  // `-` marks an empty input sequence
      const std::string_view seq = tok[1];
      // A sequence has at most one field more than it has characters, so
      // only a sequence this long can exceed the bound.
      if (seq.size() >= kMaxSequenceLength &&
          static_cast<std::size_t>(std::count(seq.begin(), seq.end(), ',')) +
                  1 >
              kMaxSequenceLength)
        throw ParseError("input sequence exceeds " +
                             std::to_string(kMaxSequenceLength) + " cycles",
                         line_no);
      // Exact for a well-formed row: fields of input_bits plus a comma.
      const std::size_t cycles =
          std::min(kMaxSequenceLength,
                   (seq.size() + 1) /
                       static_cast<std::size_t>(file.input_bits + 1));
      t.inputs.reserve(cycles);
      // Canonical in-memory form: no X anywhere -> empty input_x, so a file
      // without 'x' parses to tests that compare equal to ATPG-built ones.
      // The X masks start at the first field that carries an X.
      std::string_view rest = seq;
      bool any_x = false;
      for (;;) {
        const std::size_t comma = rest.find(',');
        const auto [v, x] =
            parse_ternary(rest.substr(0, comma), file.input_bits, line_no);
        if (x != 0 && !any_x) {
          any_x = true;
          t.input_x.reserve(cycles);
          t.input_x.assign(t.inputs.size(), 0u);
        }
        t.inputs.push_back(v);
        if (any_x) t.input_x.push_back(x);
        if (comma == std::string_view::npos) break;
        rest.remove_prefix(comma + 1);
      }
    }
    t.final_state =
        static_cast<int>(parse_binary(tok[2], file.state_bits, line_no));
    if (file.tests.size() >= kMaxTests)
      throw ParseError(
          "test file exceeds " + std::to_string(kMaxTests) + " tests",
          line_no);
    file.tests.tests.push_back(std::move(t));
  }

  if (declared_tests >= 0 &&
      declared_tests != static_cast<int>(file.tests.size()))
    throw ParseError(".tests declares " + std::to_string(declared_tests) +
                         ", found " + std::to_string(file.tests.size()),
                     line_no);
  // A file with no directives at all (empty or comment-only) is rejected
  // rather than silently decoded as "zero tests over zero-bit fields":
  // truncation to nothing must be loud. A directive-only file that
  // declares its widths but no tests is a valid empty set.
  if (file.input_bits <= 0 || file.state_bits <= 0)
    throw ParseError("empty test file: missing .inputs/.sv declarations",
                     line_no);
  return file;
}

void save_test_file(const TestFile& file, const std::string& path) {
  // Atomic temp+rename write: a crash or ENOSPC mid-save can never leave a
  // truncated test file where a complete one (or nothing) was expected.
  std::string error;
  if (!store::atomic_write_file(path, write_test_file(file), &error))
    throw Error("cannot write test file " + path + ": " + error);
}

TestFile load_test_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "cannot open test file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_test_file(ss.str());
}

void serialize_test_set(const TestSet& tests, store::BlobWriter& w) {
  w.u64(tests.size());
  for (const FunctionalTest& t : tests.tests) {
    w.i32(t.init_state);
    w.i32(t.final_state);
    w.vec_u32(t.inputs);
    w.vec_u32(t.input_x);
  }
}

bool deserialize_test_set(store::BlobReader& r, TestSet* out) {
  const std::uint64_t n = r.u64();
  // Each test record is at least two i32 + two 8-byte vector lengths.
  if (!r.ok() || n * 24 > r.remaining()) return false;
  TestSet tests;
  tests.tests.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    FunctionalTest t;
    t.init_state = r.i32();
    t.final_state = r.i32();
    t.inputs = r.vec_u32();
    t.input_x = r.vec_u32();
    if (!r.ok() || t.init_state < 0 || t.final_state < 0) return false;
    if (!t.input_x.empty() && t.input_x.size() != t.inputs.size())
      return false;
    tests.tests.push_back(std::move(t));
  }
  *out = std::move(tests);
  return true;
}

}  // namespace fstg
