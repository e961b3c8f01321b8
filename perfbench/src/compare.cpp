// perfbench_compare — compares two sets of perfbench runs against the
// bounds in BENCHMARK.json.
//
//   perfbench_compare BENCHMARK.json DIR_A DIR_B
//
// Each DIR holds one file per run: the run's whole standard output, as
// `run.py --out DIR` keeps it.  Untraced runs are grouped by workload; for
// every workload x end-to-end metric the tool prints each side's median and
// quartiles (Python's statistics.quantiles(n=4)), the spread (interquartile
// range over the median) and the verdict:
//   ok      B's median is no worse than A's by more than the bound and both
//           spreads are within it (setup_s is exempt from the spread rule);
//   WORSE   B's median is worse than A's by more than the bound;
//   NOISY   a side's spread exceeds the bound, so the pair cannot be judged.
// A workload whose share of failed operations differs between the sides,
// or with an incorrect run, is a breach too.  Exits 1 on any breach.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

// --- a minimal JSON reader (objects, arrays, strings, numbers, literals) ---

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind{Kind::kNull};
  bool boolean{false};
  double number{0.0};
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json& at(const std::string& key) const {
    const auto it = object.find(key);
    if (kind != Kind::kObject || it == object.end())
      throw std::runtime_error("missing key \"" + key + "\"");
    return it->second;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON: " + why + " at offset " +
                             std::to_string(i_));
  }
  void skip() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  bool eat(char c) {
    skip();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }
  bool literal(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (s_.compare(i_, n, word) != 0) return false;
    i_ += n;
    return true;
  }

  std::string str() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) fail("bad escape");
        c = s_[i_++];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':  // kept verbatim: names and units here are ASCII
            out += "\\u";
            continue;
          default: break;  // '"', '\\', '/'
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }

  Json value() {
    skip();
    if (i_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      v.kind = Json::Kind::kObject;
      if (eat('}')) return v;
      do {
        skip();
        std::string key = str();
        expect(':');
        v.object[key] = value();
      } while (eat(','));
      expect('}');
    } else if (c == '[') {
      ++i_;
      v.kind = Json::Kind::kArray;
      if (eat(']')) return v;
      do v.array.push_back(value());
      while (eat(','));
      expect(']');
    } else if (c == '"') {
      v.kind = Json::Kind::kString;
      v.string = str();
    } else if (literal("true")) {
      v.kind = Json::Kind::kBool;
      v.boolean = true;
    } else if (literal("false")) {
      v.kind = Json::Kind::kBool;
    } else if (literal("null")) {
    } else {
      const char* begin = s_.c_str() + i_;
      char* end = nullptr;
      v.kind = Json::Kind::kNumber;
      v.number = std::strtod(begin, &end);
      if (end == begin) fail("bad value");
      i_ += static_cast<std::size_t>(end - begin);
    }
    return v;
  }

  const std::string& s_;
  std::size_t i_{0};
};

Json parse_json(const std::string& text) { return Parser(text).parse(); }

// --- run sets ---------------------------------------------------------------

struct Run {
  std::map<std::string, double> metrics;
  double attempted{0}, failed{0};
  bool correct{false};
};

/// workload -> untraced runs
using RunSet = std::map<std::string, std::vector<Run>>;

RunSet load_runs(const std::filesystem::path& dir) {
  RunSet set;
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file()) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::string line, info, last;
    while (std::getline(in, line)) {
      if (line.rfind("{\"workload\"", 0) == 0) info = line;
      if (!line.empty()) last = line;
    }
    if (info.empty() || last.rfind("{\"correct\"", 0) != 0) {
      std::fprintf(stderr, "skipping %s: not a perfbench run\n",
                   path.string().c_str());
      continue;
    }
    const Json meta = parse_json(info);
    if (meta.at("trace").boolean) continue;  // per-layer runs carry no bound
    const Json result = parse_json(last);
    Run run;
    run.correct = result.at("correct").boolean;
    run.attempted = result.at("attempted").number;
    run.failed = result.at("failed").number;
    for (const auto& [name, m] : result.at("metrics").object)
      run.metrics[name] = m.at("value").number;
    set[meta.at("workload").string].push_back(std::move(run));
  }
  return set;
}

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default "exclusive" method); needs at least two values.
std::vector<double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  const long m = n + 1;
  std::vector<double> q;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    q.push_back((v[static_cast<std::size_t>(j - 1)] *
                     static_cast<double>(4 - delta) +
                 v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                4.0);
  }
  return q;
}

struct Summary {
  double q1{0}, median{0}, q3{0};
  double spread() const { return (q3 - q1) / median; }
};

Summary summarize(const std::vector<double>& v) {
  if (v.size() == 1) return {v[0], v[0], v[0]};
  const auto q = quartiles(v);
  return {q[0], q[1], q[2]};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: %s BENCHMARK.json DIR_A DIR_B\n", argv[0]);
    return 2;
  }
  try {
    std::ifstream spec_in(argv[1]);
    std::stringstream spec_text;
    spec_text << spec_in.rdbuf();
    const Json spec = parse_json(spec_text.str());
    const RunSet a = load_runs(argv[2]);
    const RunSet b = load_runs(argv[3]);

    int breaches = 0;
    std::printf("%-10s %-15s %29s %29s %7s %7s %6s  %s\n", "workload",
                "metric", "A q1 / median / q3", "B q1 / median / q3",
                "A sprd", "B sprd", "bound", "verdict");
    for (const auto& [workload, runs_a] : a) {
      const auto it = b.find(workload);
      if (it == b.end()) {
        std::printf("%-10s missing from B\n", workload.c_str());
        ++breaches;
        continue;
      }
      const auto& runs_b = it->second;
      for (const Json& m : spec.at("end_to_end").array) {
        const std::string& name = m.at("name").string;
        const double bound = m.at("bound").number;
        const bool lower = m.at("better").string == "lower";
        std::vector<double> va, vb;
        for (const Run& r : runs_a) va.push_back(r.metrics.at(name));
        for (const Run& r : runs_b) vb.push_back(r.metrics.at(name));
        const Summary sa = summarize(va), sb = summarize(vb);
        const double change = sb.median / sa.median - 1.0;
        const bool worse = lower ? change > bound : change < -bound;
        const bool noisy = name != "setup_s" &&
                           (sa.spread() > bound || sb.spread() > bound);
        const char* verdict = worse ? "WORSE" : noisy ? "NOISY" : "ok";
        breaches += (worse || noisy) ? 1 : 0;
        std::printf("%-10s %-15s %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g "
                    "%7.4f %7.4f %6.3f  %s (%+.2f%%)\n",
                    workload.c_str(), name.c_str(), sa.q1, sa.median, sa.q3,
                    sb.q1, sb.median, sb.q3, sa.spread(), sb.spread(), bound,
                    verdict, 100.0 * change);
      }
      auto share = [](const std::vector<Run>& runs, bool& all_correct) {
        double att = 0, fail = 0;
        for (const Run& r : runs) {
          att += r.attempted;
          fail += r.failed;
          all_correct = all_correct && r.correct;
        }
        return fail / att;
      };
      bool correct = true;
      const double fa = share(runs_a, correct), fb = share(runs_b, correct);
      const bool ok = correct && fa == fb;
      breaches += ok ? 0 : 1;
      std::printf("%-10s %-15s A %zu runs, failed share %.6g; B %zu runs, "
                  "failed share %.6g; all correct: %s  %s\n",
                  workload.c_str(), "operations", runs_a.size(), fa,
                  runs_b.size(), fb, correct ? "yes" : "no",
                  ok ? "ok" : "BREACH");
    }
    std::printf("%d breach%s\n", breaches, breaches == 1 ? "" : "es");
    return breaches == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_compare: %s\n", e.what());
    return 2;
  }
}
