// End-to-end serving benchmark binary: one process, two closed-loop
// client threads (one outstanding request each) against a QueryEngine
// with two workers, on the seeded graph of workload.h.
//
//   e2e --workload serve-warm|prepare-cold|mutate-mix --seed N
//       --seconds S --trace 0|1 --out RESULT.json [--spans SPANS.tsv]
//
// A request is one page of 64 answers: either a new query's first page
// (PrepareRegex -> OpenSession -> Pump) or the next page of a session
// the client opened earlier (Pump). Each page is checked against the
// from-scratch oracle of oracle.h at the next checkpoint, where both
// clients stop together, check what they served, and resume. mutate-mix
// writes (AddEdge batch -> Freeze -> InstallSnapshot) at checkpoints
// too, because the engine forbids Prepare/Pump while the Database is
// mutated. The other workloads run the same writes after their read
// window, against the cache and session state the reads left behind
// ("write probes").
//
// The binary writes raw samples, engine counters and (with --trace 1)
// spans; e2ebench/stats.py turns them into the named metrics.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "automaton/canonical_hash.h"
#include "automaton/frontend.h"
#include "baseline/naive.h"
#include "core/annotate.h"
#include "core/database.h"
#include "core/delta_annotate.h"
#include "core/resumable_enumerator.h"
#include "core/resumable_index.h"
#include "core/trimmed_index.h"
#include "engine/engine.h"
#include "oracle.h"
#include "probes.h"
#include "regex/regex_parser.h"
#include "trace.h"
#include "workload.h"

namespace e2e {
namespace {

using dsw::EngineOptions;
using dsw::EngineStats;
using dsw::PumpResult;
using dsw::PumpStatus;
using dsw::QueryEngine;
using dsw::SessionId;

constexpr uint32_t kPage = 64;
constexpr uint32_t kClients = 2;
constexpr int kSetupReps = 9;      // setup_s is their median
constexpr int kProbeWrites = 100;  // enough for a supported p90
constexpr uint64_t kSampleEvery = 8;  // traced: replay one page in this many
constexpr uint64_t kProbeEvery = 4;   // probe the host per this many firsts
constexpr int kSetupProbes = 25;      // CpuProbe runs before each set-up
// Pages a client holds for checking before it calls a checkpoint. Above
// what a prepare-cold client serves in a run, so its first pages keep
// their spacing.
constexpr size_t kMaxPending = 4096;

enum class Workload { kServeWarm, kPrepareCold, kMutateMix };

struct Args {
  Workload workload = Workload::kServeWarm;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 5;
  bool trace = false;
  std::string out;
  std::string spans;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "e2e: %s\n", why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload_name = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--spans") a.spans = v;
    else Usage(("unknown flag " + k).c_str());
  }
  if (a.workload_name == "serve-warm") a.workload = Workload::kServeWarm;
  else if (a.workload_name == "prepare-cold") a.workload = Workload::kPrepareCold;
  else if (a.workload_name == "mutate-mix") a.workload = Workload::kMutateMix;
  else Usage("--workload must be serve-warm, prepare-cold or mutate-mix");
  if (a.out.empty()) Usage("--out is required");
  if (a.seconds <= 0) Usage("--seconds must be positive");
  return a;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMb() {
  std::ifstream f("/proc/self/statm");
  long pages = 0, resident = 0;
  f >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Host CPU time stolen by the hypervisor, as a share of all CPU time,
// from the first line of /proc/stat (0 where it is not reported).
struct CpuTicks {
  double steal = 0, total = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  f >> cpu;
  for (double& x : v) f >> x;
  CpuTicks t;
  for (double x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// The calling thread's clocks. On a shared virtual machine the
// hypervisor takes vCPUs away for milliseconds at a time (steal); the
// thread's CPU time leaves that out, its wall time does not.
struct ThreadClock {
  int64_t wall_ns = 0, cpu_ns = 0;
  long blocked = 0;  // voluntary context switches so far

  static ThreadClock Now() {
    ThreadClock c;
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    c.cpu_ns = static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
    c.blocked = ru.ru_nvcsw;
    c.wall_ns = NowNs();
    return c;
  }
};

// What a call that ran on the calling thread between a and b is
// charged: its CPU time, or its wall time if the thread blocked in it
// (a lock, a wait), so that time the program waits stays in the figure
// and only time the hypervisor held the vCPU drops out.
int64_t ChargedNs(const ThreadClock& a, const ThreadClock& b) {
  return b.blocked != a.blocked ? b.wall_ns - a.wall_ns : b.cpu_ns - a.cpu_ns;
}

// Request outcomes. parse_error, bad_page and unexpected fail the run;
// retired is the engine's documented answer to a parked session whose
// plan's order changed under a write — the client drops the session
// and its next request prepares afresh.
struct Outcomes {
  uint64_t ok = 0, parse_error = 0, retired = 0, bad_page = 0,
           unexpected = 0;
};

// One served page or one write: when it completed (seconds since the
// window opened) and how long it took. value charges the work the
// client thread did itself by ChargedNs and a Pump by its wall time;
// pump is that Pump's part of value; wall is the whole request's wall
// time.
struct Sample {
  double end_s;
  double value;     // page: microseconds; write: milliseconds
  double pump;      // same unit as value; 0 for a write
  double wall;      // same unit as value
  uint32_t answers;
  bool first;       // page: a first page, else a next page
};

struct ClientResult {
  explicit ClientResult(bool trace, uint32_t owner) : spans(trace, owner) {}
  std::vector<Sample> pages, writes;
  std::vector<double> probe_us;      // HandoffProbe round trips
  std::vector<double> cpu_probe_us;  // CpuProbe work
  uint64_t requests = 0;
  Outcomes outcomes;
  std::map<std::string, std::vector<double>> values;
  SpanBuffer spans;
};

// Everything the clients share. db/engine/snap change only at
// checkpoints, when no request is in flight.
struct World {
  std::unique_ptr<Instance> inst;
  std::unique_ptr<QueryEngine> engine;  // destroyed before inst
  dsw::Snapshot snap;
  std::vector<Shape> shapes;
  std::vector<dsw::Nfa> oracle_nfas;  // per shape
  std::vector<Key> keys;
  std::vector<double> setup_s;
  std::vector<double> setup_probe_us;  // CpuProbe beside the set-ups
};

EngineOptions ServingOptions() {
  EngineOptions o;
  o.num_threads = 2;  // everything else at its default
  return o;
}

// Builds the graph, freezes it, starts the engine and, for the warm
// workloads, prepares every hot key once. Timed as setup_s.
void SetUp(const Args& args, World* w) {
  w->engine.reset();
  w->inst = std::make_unique<Instance>(BuildGraph());
  w->snap = w->inst->db.Freeze();
  w->engine = std::make_unique<QueryEngine>(ServingOptions());
  w->engine->InstallSnapshot(w->snap);
  w->shapes = args.workload == Workload::kPrepareCold ? ColdShapes()
                                                      : HotShapes();
  w->keys = args.workload == Workload::kPrepareCold
                ? ColdKeys(static_cast<uint32_t>(w->shapes.size()))
                : HotKeys(static_cast<uint32_t>(w->shapes.size()));
  if (args.workload != Workload::kPrepareCold) {
    for (const Key& k : w->keys) {
      auto r = w->engine->PrepareRegex(w->shapes[k.shape].variants[0],
                                       w->inst->db.mutable_dict(), k.source,
                                       k.target);
      if (r.ok) w->engine->Pump(w->engine->OpenSession(r.id), kPage);
    }
  }
}

using WalkSet = std::set<std::vector<uint32_t>>;

// Setup-time answer-set check of a few small keys against the naive
// baseline (baseline/naive.h), through the engine's full Drain.
bool NaiveCheck(World& w, uint64_t seed, std::string* why) {
  std::mt19937_64 rng(seed * 31 + 5);
  for (const Key& k : SmallKeys(rng)) {
    const Shape& shape = w.shapes[k.shape];
    dsw::NaiveResult naive = dsw::NaiveDistinctShortestWalks(
        w.snap, w.oracle_nfas[k.shape], k.source, k.target, 1u << 22);
    auto r = w.engine->PrepareRegex(shape.variants.back(),
                                    w.inst->db.mutable_dict(), k.source,
                                    k.target);
    if (!r.ok || naive.budget_exhausted) {
      *why = "naive check could not run on " + shape.name;
      return false;
    }
    PumpResult all = w.engine->Drain(w.engine->OpenSession(r.id), kPage);
    WalkSet got, want;
    for (const dsw::Walk& x : all.walks) got.insert(x.edges);
    for (const dsw::Walk& x : naive.walks) want.insert(x.edges);
    if (got != want || got.size() != all.walks.size() || want.empty()) {
      *why = "naive answer set differs on " + shape.name;
      return false;
    }
  }
  return true;
}

struct RunConfig {
  double p_first = 0.5;       // share of requests that open a new query
  size_t open_cap = 32;       // parked sessions a client remembers
  // Zipf(1.0) over the hot keys, else the stratified cold draw of
  // ColdKeyIndex.
  bool zipf_keys = true;
  uint64_t write_every = 0;   // mutate-mix: a write per this many requests
  // At most this many first pages per run (0 = no cap), spread evenly
  // over the window: each client starts a new query no sooner than its
  // share of the window allows (think time), and stops at the cap. Every
  // cold miss pins its plan for the engine's lifetime, so this bounds
  // prepare-cold's memory at about 1 GB while its samples still cover
  // the whole window.
  int64_t max_first_pages = 0;
};

class Runner {
 public:
  Runner(const Args& args, World& w, const RunConfig& cfg)
      : args_(args), w_(w), cfg_(cfg), zipf_(w.keys.size(), 1.0),
        oracle_(args.workload == Workload::kPrepareCold ? 8 : 64),
        write_rng_(args.seed * 4099 + 77), sync_(kClients, OnSync{this}) {}

  // The read window: both clients serve until the deadline, stopping at
  // checkpoints to check what they served (and, in mutate-mix, to
  // write).
  void Run(std::vector<std::unique_ptr<ClientResult>>* results) {
    window_start_ = NowNs();
    deadline_ = window_start_ + static_cast<int64_t>(args_.seconds * 1e9);
    writer_ = (*results)[0].get();
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < kClients; ++c)
      threads.emplace_back([this, c, results] {
        Client(c, (*results)[c].get());
      });
    for (std::thread& t : threads) t.join();
  }

  // One write: AddEdge batch + Freeze + InstallSnapshot, timed as one.
  // Must run with no request in flight.
  void Write(ClientResult* out) {
    SpanBuffer& sb = out->spans;
    Database& db = w_.inst->db;
    WriteBatch batch = MakeWriteBatch(db, writes_++, write_rng_);
    const uint64_t prev_gen = w_.snap.generation();
    // Traced: make sure the repair replays have old plans to work on.
    // Its own generator, so traced and untraced runs write the same.
    if (sb.enabled()) {
      std::mt19937_64 pick(prev_gen);
      for (int i = 0; i < 4; ++i)
        OracleFor(static_cast<uint32_t>(pick() % w_.keys.size()));
    }
    const int64_t req = next_request_.fetch_add(1);
    const ThreadClock c0 = ThreadClock::Now();
    {
      ScopedSpan root(sb, "write", req, -1);
      {
        ScopedSpan s(sb, "core.add_edges", req, root.id());
        for (const WriteBatch::E& e : batch.edges)
          db.AddEdge(e.src, e.label, e.dst);
      }
      {
        ScopedSpan s(sb, "core.freeze", req, root.id());
        w_.snap = db.Freeze();
      }
      ScopedSpan s(sb, "engine.InstallSnapshot", req, root.id());
      w_.engine->InstallSnapshot(w_.snap);
    }
    const ThreadClock c1 = ThreadClock::Now();
    out->writes.push_back(
        Sample{static_cast<double>(c1.wall_ns - window_start_) / 1e9,
               static_cast<double>(ChargedNs(c0, c1)) / 1e6, 0,
               static_cast<double>(c1.wall_ns - c0.wall_ns) / 1e6, 0,
               false});
    if (sb.enabled()) ReplayWrite(out, prev_gen, req);
    oracle_.KeepOnly(w_.snap.generation());
  }

 private:
  struct Parked {
    SessionId sid;
    uint32_t key;
    dsw::Walk last;
  };

  // A served page awaiting its check. Checks (and, traced, the stage
  // replays) run at the next checkpoint, when no request is in flight:
  // inline, the oracle's from-scratch builds competed with the other
  // client's requests and several-folded their latency.
  struct Served {
    uint32_t key;
    bool first;
    dsw::Walk prev;  // next page: the previous page's last walk
    PumpResult page;
    // Traced runs only.
    const std::string* text = nullptr;
    int64_t req = -1, prep_span = -1;
    bool missed = false, sample = false;
  };

  // Runs once per barrier phase, on the last client to arrive. A
  // checkpoint is two phases: every client has stopped serving (decide
  // whether the window is over), then every client has checked its
  // pages (write, if one is due).
  struct OnSync {
    Runner* r;
    void operator()() noexcept {
      if (!r->checked_) {
        r->stop_ = NowNs() >= r->deadline_ ||
                   (r->cfg_.max_first_pages > 0 &&
                    r->first_pages_.load() >= r->cfg_.max_first_pages);
      } else {
        if (!r->stop_ && r->cfg_.write_every > 0 &&
            r->since_write_.load() >= r->cfg_.write_every) {
          r->since_write_.store(0);
          r->Write(r->writer_);
        }
        r->checkpoint_.store(false);
      }
      r->checked_ = !r->checked_;
    }
  };

  bool CheckpointDue(size_t pending) const {
    return NowNs() >= deadline_ || pending >= kMaxPending ||
           (cfg_.write_every > 0 && since_write_.load() >= cfg_.write_every) ||
           (cfg_.max_first_pages > 0 &&
            first_pages_.load() >= cfg_.max_first_pages);
  }

  void Client(uint32_t c, ClientResult* out) {
    std::mt19937_64 rng(args_.seed * 1000003 + c);
    std::vector<Parked> open;
    std::vector<Served> pending;
    HandoffProbe probe;
    CpuProbe cpu;
    uint64_t pages = 0, firsts = 0;
    const int64_t interval =
        cfg_.max_first_pages > 0
            ? static_cast<int64_t>(args_.seconds * 1e9 * kClients /
                                   static_cast<double>(cfg_.max_first_pages))
            : 0;
    int64_t next_first = window_start_ + interval * c / kClients;
    for (;;) {
      if (!checkpoint_.load()) {
        const bool first =
            open.empty() ||
            std::uniform_real_distribution<double>(0, 1)(rng) < cfg_.p_first;
        if (first && interval > 0) {
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(next_first)));
          next_first += interval;
        }
        if (!checkpoint_.load() && NowNs() < deadline_) {
          const bool sample =
              out->spans.enabled() && (pages++ % kSampleEvery) == 0;
          if (first && firsts % kProbeEvery == 0) {
            out->probe_us.push_back(Us(probe.RoundTripNs()));
            out->cpu_probe_us.push_back(Us(cpu.WorkNs()));
          }
          if (first)
            FirstPage(rng, c + firsts++, &open, &pending, out, sample);
          else
            NextPage(rng, &open, &pending, out, sample);
          since_write_.fetch_add(1);
        }
        if (CheckpointDue(pending.size())) checkpoint_.store(true);
        continue;
      }
      sync_.arrive_and_wait();
      CheckPending(&pending, out);
      sync_.arrive_and_wait();
      if (stop_) return;
    }
  }

  void CheckPending(std::vector<Served>* pending, ClientResult* out) {
    for (const Served& s : *pending) {
      const dsw::Walk* prev = s.first ? nullptr : &s.prev;
      if (!CheckPage(s.key, prev, s.page)) {
        ++out->outcomes.bad_page;
        continue;
      }
      ++out->outcomes.ok;
      if (!out->spans.enabled()) continue;
      if (s.first)
        ReplayPrepare(out, *s.text, w_.keys[s.key], s.prep_span, s.req,
                      s.missed);
      if (s.sample) ReplayPage(out, s.key, prev, s.req);
    }
    pending->clear();
  }

  // A page whose client-side calls ran from c0 to c1 (nothing for a
  // next page) and whose Pump ran from c1 to t1.
  Sample PageSample(const ThreadClock& c0, const ThreadClock& c1, int64_t t1,
                    const PumpResult& page, bool first) const {
    return Sample{static_cast<double>(t1 - window_start_) / 1e9,
                  Us(ChargedNs(c0, c1) + (t1 - c1.wall_ns)),
                  Us(t1 - c1.wall_ns), Us(t1 - c0.wall_ns),
                  static_cast<uint32_t>(page.walks.size()), first};
  }

  OracleCache::Plan OracleFor(uint32_t key_id) {
    const Key& k = w_.keys[key_id];
    const dsw::Snapshot snap = w_.snap;
    return oracle_.Get(key_id, snap.generation(), [&] {
      return std::make_shared<const OraclePlan>(
          snap, w_.oracle_nfas[k.shape], k.source, k.target);
    });
  }

  // Compares a served page with the oracle's; prev is the previous
  // page's last walk for a next page.
  bool CheckPage(uint32_t key_id, const dsw::Walk* prev,
                 const PumpResult& page) {
    OracleCache::Plan plan = OracleFor(key_id);
    std::vector<dsw::Walk> want;
    bool more = false;
    if (!ExpectedPage(*plan, prev, kPage, &want, &more)) return false;
    if (want.size() != page.walks.size()) return false;
    for (size_t i = 0; i < want.size(); ++i)
      if (want[i].edges != page.walks[i].edges) return false;
    if (page.status == PumpStatus::kOk) return page.walks.size() == kPage;
    return page.status == PumpStatus::kExhausted && !more;
  }

  void FirstPage(std::mt19937_64& rng, uint64_t first_pages,
                 std::vector<Parked>* open, std::vector<Served>* pending,
                 ClientResult* out, bool sample) {
    const uint32_t key_id =
        cfg_.zipf_keys
            ? static_cast<uint32_t>(zipf_(rng))
            : ColdKeyIndex(first_pages,
                           static_cast<uint32_t>(w_.shapes.size()), rng);
    const Key& k = w_.keys[key_id];
    const auto& variants = w_.shapes[k.shape].variants;
    const std::string& text = variants[rng() % variants.size()];
    SpanBuffer& sb = out->spans;
    const int64_t req = next_request_.fetch_add(1);
    first_pages_.fetch_add(1);
    uint64_t misses_before = 0;
    if (sb.enabled()) misses_before = w_.engine->Stats().plan_cache.misses;

    const ThreadClock c0 = ThreadClock::Now();
    int64_t root = sb.Begin("request.first_page", req, -1);
    int64_t prep = sb.Begin("engine.PrepareRegex", req, root);
    dsw::PrepareRegexResult r = w_.engine->PrepareRegex(
        text, w_.inst->db.mutable_dict(), k.source, k.target);
    sb.End();
    PumpResult page;
    SessionId sid = 0;
    ThreadClock c1 = c0;
    if (r.ok) {
      {
        ScopedSpan s(sb, "engine.OpenSession", req, root);
        sid = w_.engine->OpenSession(r.id);
      }
      c1 = ThreadClock::Now();
      ScopedSpan s(sb, "engine.Pump", req, root);
      page = Await(w_.engine->PumpAsync(sid, kPage));
    }
    sb.End();
    const int64_t t1 = NowNs();

    ++out->requests;
    if (!r.ok) {
      ++out->outcomes.parse_error;
      return;
    }
    out->pages.push_back(PageSample(c0, c1, t1, page, true));
    if (page.status == PumpStatus::kRetired ||
        page.status == PumpStatus::kBusy) {
      ++out->outcomes.unexpected;  // no write can intervene here
      return;
    }
    if (page.status == PumpStatus::kOk) {
      Parked p{sid, key_id, page.walks.back()};
      if (open->size() < cfg_.open_cap) open->push_back(std::move(p));
      else (*open)[rng() % open->size()] = std::move(p);
    }
    Served served{key_id, true, {}, std::move(page)};
    if (sb.enabled()) {
      served.text = &text;
      served.req = req;
      served.prep_span = prep;
      served.missed = w_.engine->Stats().plan_cache.misses > misses_before;
      served.sample = sample;
    }
    pending->push_back(std::move(served));
  }

  void NextPage(std::mt19937_64& rng, std::vector<Parked>* open,
                std::vector<Served>* pending, ClientResult* out,
                bool sample) {
    const size_t i = rng() % open->size();
    Parked& p = (*open)[i];
    SpanBuffer& sb = out->spans;
    const int64_t req = next_request_.fetch_add(1);
    const ThreadClock c0 = ThreadClock::Now();
    int64_t root = sb.Begin("request.next_page", req, -1);
    PumpResult page;
    {
      ScopedSpan s(sb, "engine.Pump", req, root);
      page = Await(w_.engine->PumpAsync(p.sid, kPage));
    }
    sb.End();
    const int64_t t1 = NowNs();

    ++out->requests;
    bool keep = false;
    if (page.status == PumpStatus::kRetired) {
      ++out->outcomes.retired;
    } else if (page.status == PumpStatus::kBusy) {
      ++out->outcomes.unexpected;
    } else {
      out->pages.push_back(PageSample(c0, c0, t1, page, false));
      Served served{p.key, false, p.last, std::move(page)};
      served.req = req;
      served.sample = sample;
      if (served.page.status == PumpStatus::kOk) {
        p.last = served.page.walks.back();
        keep = true;
      }
      pending->push_back(std::move(served));
    }
    if (!keep) {
      (*open)[i] = std::move(open->back());
      open->pop_back();
    }
  }

  // ---------------------------------------------------------- replays
  //
  // Traced runs price the stages an engine call ran internally by
  // re-running the public stage functions on the same inputs. The
  // front-end replays belong to every PrepareRegex (the engine runs the
  // front-end even on a cache hit); the build replays only to the calls
  // that missed the plan cache.

  void ReplayPrepare(ClientResult* out, const std::string& text,
                     const Key& k, int64_t prep_span, int64_t req,
                     bool missed) {
    SpanBuffer& sb = out->spans;
    dsw::RegexParseResult parsed;
    {
      ScopedSpan s(sb, "regex.parse", req, prep_span, true);
      parsed = dsw::ParseRegex(text);
    }
    dsw::CompiledRegex compiled;
    {
      ScopedSpan s(sb, "automaton.compile", req, prep_span, true);
      compiled = dsw::CompileRegex(*parsed.value(),
                                   w_.inst->db.mutable_dict());
    }
    {
      ScopedSpan s(sb, "automaton.canon_hash", req, prep_span, true);
      dsw::CanonicalizeAutomaton(compiled.nfa);
    }
    out->values["automaton.states"].push_back(compiled.nfa.num_states());
    if (!missed) return;

    dsw::Annotation ann;
    {
      ScopedSpan s(sb, "core.annotate", req, prep_span, true);
      ann = dsw::Annotate(w_.snap, compiled.nfa, k.source, k.target);
    }
    std::unique_ptr<dsw::TrimmedIndex> trimmed;
    {
      ScopedSpan s(sb, "core.trim", req, prep_span, true);
      trimmed = std::make_unique<dsw::TrimmedIndex>(w_.snap, ann);
    }
    const size_t slots = trimmed->num_slots();
    const size_t trimmed_bytes = trimmed->ApproxBytes();
    std::unique_ptr<dsw::ResumableIndex> index;
    {
      ScopedSpan s(sb, "core.queue_layout", req, prep_span, true);
      index = std::make_unique<dsw::ResumableIndex>(w_.snap, ann,
                                                    std::move(*trimmed));
    }
    double pairs = 0;
    for (const dsw::LevelSets& level : ann.levels)
      for (size_t i = 0; i < level.size(); ++i)
        pairs += level.states(i).Count();
    const double plan_bytes =
        static_cast<double>(ann.ApproxBytes() + index->ApproxBytes());
    out->values["core.lambda"].push_back(ann.lambda);
    out->values["core.annotate.pairs"].push_back(pairs);
    out->values["core.trim.useful_frac"].push_back(
        pairs > 0 ? static_cast<double>(slots) / pairs : 0);
    out->values["core.plan_kb"].push_back(plan_bytes / 1024.0);
    out->values["core.queue_frac"].push_back(
        plan_bytes > 0
            ? (static_cast<double>(index->ApproxBytes()) -
               static_cast<double>(trimmed_bytes)) / plan_bytes
            : 0);
  }

  // Re-enumerates one served page on the oracle's plan: first answer
  // (construction) or SeekAfter, then every Next() with its Theorem 2
  // operation count (row ORs + certificate probes).
  void ReplayPage(ClientResult* out, uint32_t key_id, const dsw::Walk* prev,
                  int64_t req) {
    SpanBuffer& sb = out->spans;
    OracleCache::Plan plan = OracleFor(key_id);
    std::unique_ptr<ResumableEnumerator> en;
    if (prev == nullptr) {
      ScopedSpan s(sb, "core.first_answer", req, -1, true);
      en = std::make_unique<ResumableEnumerator>(plan->ann, plan->index,
                                                 plan->source, plan->target);
    } else {
      en = std::make_unique<ResumableEnumerator>(plan->ann, plan->index,
                                                 plan->source, plan->target);
      ScopedSpan s(sb, "core.seek_after", req, -1, true);
      if (!en->SeekAfter(*prev)) std::abort();  // CheckPage accepted it
    }
    const double bound =
        (2.0 * plan->ann.lambda + 1.0) * plan->ann.num_states;
    auto& ops = out->values["core.ops_per_answer"];
    auto& frac = out->values["core.ops_bound_frac"];
    uint32_t steps = 0;
    const int64_t t0 = NowNs();
    for (; steps + 1 < kPage && en->Valid(); ++steps) {
      const uint64_t before = en->stats().row_ors + en->stats().probes;
      en->Next();
      if (!en->Valid()) break;
      const double n = static_cast<double>(en->stats().row_ors +
                                           en->stats().probes - before);
      ops.push_back(n);
      frac.push_back(bound > 0 ? n / bound : 0);
    }
    if (steps > 0)
      out->values["core.next_ns"].push_back(
          static_cast<double>(NowNs() - t0) / steps);
  }

  // The write path's stages, on the snapshot just installed: the delta
  // lookup, the reverse CSR, and one repair per oracle plan of the
  // previous generation (at most four).
  void ReplayWrite(ClientResult* out, uint64_t prev_gen, int64_t req) {
    SpanBuffer& sb = out->spans;
    dsw::EdgeDelta delta;
    {
      ScopedSpan s(sb, "core.delta_from", req, -1, true);
      delta = w_.snap.DeltaFrom(prev_gen);
    }
    std::unique_ptr<dsw::DeltaContext> ctx;
    {
      ScopedSpan s(sb, "core.delta_context", req, -1, true);
      ctx = std::make_unique<dsw::DeltaContext>(w_.snap);
    }
    if (!delta.known) return;
    std::vector<OracleCache::Plan> plans = oracle_.PlansOf(prev_gen);
    if (plans.size() > 4) plans.resize(4);
    for (const OracleCache::Plan& old : plans) {
      if (!old->ann.reachable()) continue;
      dsw::Annotation ann = old->ann;
      dsw::AnnotationRepair rep;
      {
        ScopedSpan s(sb, "core.delta_annotate", req, -1, true);
        rep = dsw::DeltaAnnotate(w_.snap, delta, &ann);
      }
      if (!rep.ok) continue;
      {
        ScopedSpan s(sb, "core.delta_trim", req, -1, true);
        dsw::DeltaTrim(w_.snap, ann, old->index.trimmed(), rep, delta, *ctx);
      }
      double changed = 0, annotated = 0;
      for (const auto& c : rep.changed) changed += c.size();
      for (const dsw::LevelSets& level : ann.levels) annotated += level.size();
      out->values["core.delta.changed_frac"].push_back(
          annotated > 0 ? changed / annotated : 0);
    }
  }

  const Args& args_;
  World& w_;
  const RunConfig cfg_;
  const Zipf zipf_;
  OracleCache oracle_;
  std::mt19937_64 write_rng_;
  uint64_t writes_ = 0;
  std::atomic<int64_t> next_request_{0};
  std::atomic<int64_t> first_pages_{0};
  std::atomic<uint64_t> since_write_{0};  // requests since the last write
  std::atomic<bool> checkpoint_{false};   // a client has called one
  // Written by OnSync while every client waits at the barrier.
  bool checked_ = false;
  bool stop_ = false;
  ClientResult* writer_ = nullptr;  // client 0's result takes the writes
  int64_t window_start_ = 0;
  int64_t deadline_ = 0;
  std::barrier<OnSync> sync_;
};

void AppendNumbers(std::string* s, const std::vector<double>& v) {
  *s += "[";
  char buf[64];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, i ? ",%.6g" : "%.6g", v[i]);
    *s += buf;
  }
  *s += "]";
}

void AppendField(std::string* s, const char* name, double v) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "\"%s\":%.9g,", name, v);
  *s += buf;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  World w;
  CpuProbe cpu;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    for (int i = 0; i < kSetupProbes; ++i)
      w.setup_probe_us.push_back(Us(cpu.WorkNs()));
    const int64_t t0 = NowNs();
    SetUp(args, &w);
    w.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  for (const Shape& s : w.shapes)
    w.oracle_nfas.push_back(
        OracleNfa(s.variants[0], w.inst->db.mutable_dict()));

  std::string naive_why;
  const bool naive_ok = NaiveCheck(w, args.seed, &naive_why);

  RunConfig cfg;
  switch (args.workload) {
    case Workload::kServeWarm:
      break;
    case Workload::kPrepareCold:
      cfg.zipf_keys = false;
      cfg.p_first = 0.25;
      cfg.open_cap = 4;
      cfg.max_first_pages = 1200;
      break;
    case Workload::kMutateMix:
      cfg.write_every = 256;
      break;
  }

  std::vector<std::unique_ptr<ClientResult>> results;
  for (uint32_t c = 0; c < kClients; ++c)
    results.push_back(std::make_unique<ClientResult>(args.trace, c));
  const EngineStats base = w.engine->Stats();
  const double rss_after_setup = CurrentRssMb();
  Runner runner(args, w, cfg);
  const CpuTicks ticks0 = ReadCpuTicks();
  const int64_t w0 = NowNs();
  runner.Run(&results);
  const double window_s = static_cast<double>(NowNs() - w0) / 1e9;
  const CpuTicks ticks1 = ReadCpuTicks();
  const double steal_frac =
      ticks1.total > ticks0.total
          ? (ticks1.steal - ticks0.steal) / (ticks1.total - ticks0.total)
          : 0;
  const EngineStats window = w.engine->Stats();
  const double rss_after_window = CurrentRssMb();
  const std::vector<int64_t> enqueue_ns = w.engine->FirstAnswerLatenciesNs();

  // Workloads without writes in their mix measure the same writes
  // afterwards, against the cache and sessions their reads left.
  if (cfg.write_every == 0)
    for (int i = 0; i < kProbeWrites; ++i) runner.Write(results[0].get());
  const EngineStats end = w.engine->Stats();
  const double peak_rss = PeakRssMb();

  // ------------------------------------------------------------ output
  std::vector<Sample> pages, writes;
  std::vector<double> probe_us, cpu_probe_us;
  uint64_t requests = 0;
  Outcomes outcomes;
  std::map<std::string, std::vector<double>> values;
  for (const auto& r : results) {
    pages.insert(pages.end(), r->pages.begin(), r->pages.end());
    writes.insert(writes.end(), r->writes.begin(), r->writes.end());
    probe_us.insert(probe_us.end(), r->probe_us.begin(), r->probe_us.end());
    cpu_probe_us.insert(cpu_probe_us.end(), r->cpu_probe_us.begin(),
                        r->cpu_probe_us.end());
    requests += r->requests;
    outcomes.ok += r->outcomes.ok;
    outcomes.parse_error += r->outcomes.parse_error;
    outcomes.retired += r->outcomes.retired;
    outcomes.bad_page += r->outcomes.bad_page;
    outcomes.unexpected += r->outcomes.unexpected;
    for (const auto& [name, v] : r->values)
      values[name].insert(values[name].end(), v.begin(), v.end());
  }
  auto by_end = [](const Sample& a, const Sample& b) {
    return a.end_s < b.end_s;
  };
  std::sort(pages.begin(), pages.end(), by_end);
  std::sort(writes.begin(), writes.end(), by_end);
  std::vector<double> enq_us;
  for (int64_t ns : enqueue_ns) enq_us.push_back(Us(ns));
  values["engine.enqueue_to_first_us"] = std::move(enq_us);

  std::string s = "{";
  s += "\"workload\":\"" + args.workload_name + "\",";
  s += "\"compiler\":\"" E2E_COMPILER "\",\"cxx_flags\":\"" E2E_CXX_FLAGS
       "\",\"build_type\":\"" E2E_BUILD_TYPE "\",";
  AppendField(&s, "seed", static_cast<double>(args.seed));
  AppendField(&s, "seconds", args.seconds);
  AppendField(&s, "window_s", window_s);
  AppendField(&s, "steal_frac", steal_frac);
  AppendField(&s, "trace", args.trace ? 1 : 0);
  AppendField(&s, "clients", kClients);
  AppendField(&s, "engine_threads", w.engine->num_threads());
  AppendField(&s, "vertices", w.inst->db.num_vertices());
  AppendField(&s, "edges", static_cast<double>(w.inst->db.num_edges()));
  AppendField(&s, "keys", static_cast<double>(w.keys.size()));
  AppendField(&s, "requests", static_cast<double>(requests));
  AppendField(&s, "ok", static_cast<double>(outcomes.ok));
  AppendField(&s, "parse_error", static_cast<double>(outcomes.parse_error));
  AppendField(&s, "retired", static_cast<double>(outcomes.retired));
  AppendField(&s, "bad_page", static_cast<double>(outcomes.bad_page));
  AppendField(&s, "unexpected", static_cast<double>(outcomes.unexpected));
  AppendField(&s, "naive_ok", naive_ok ? 1 : 0);
  AppendField(&s, "peak_rss_mb", peak_rss);
  AppendField(&s, "rss_after_setup_mb", rss_after_setup);
  AppendField(&s, "rss_after_window_mb", rss_after_window);
  auto column = [&s](const char* name, const std::vector<Sample>& v,
                     auto field) {
    std::vector<double> col;
    col.reserve(v.size());
    for (const Sample& x : v) col.push_back(field(x));
    s += "\"";
    s += name;
    s += "\":";
    AppendNumbers(&s, col);
    s += ",";
  };
  column("page_end_s", pages, [](const Sample& x) { return x.end_s; });
  column("page_us", pages, [](const Sample& x) { return x.value; });
  column("page_pump_us", pages, [](const Sample& x) { return x.pump; });
  column("page_wall_us", pages, [](const Sample& x) { return x.wall; });
  column("page_answers", pages,
         [](const Sample& x) { return static_cast<double>(x.answers); });
  column("page_first", pages,
         [](const Sample& x) { return x.first ? 1.0 : 0.0; });
  column("write_end_s", writes, [](const Sample& x) { return x.end_s; });
  column("write_ms", writes, [](const Sample& x) { return x.value; });
  column("write_wall_ms", writes, [](const Sample& x) { return x.wall; });
  s += "\"setup_s\":";
  AppendNumbers(&s, w.setup_s);
  s += ",\"setup_probe_us\":";
  AppendNumbers(&s, w.setup_probe_us);
  s += ",\"probe_us\":";
  AppendNumbers(&s, probe_us);
  s += ",\"cpu_probe_us\":";
  AppendNumbers(&s, cpu_probe_us);

  // Engine counters: window deltas for traffic counters, end-of-run
  // values for state; the write counters include the probe writes.
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
  s += ",\"counters\":{";
  AppendField(&s, "cache_hits", d(window.plan_cache.hits, base.plan_cache.hits));
  AppendField(&s, "cache_misses",
              d(window.plan_cache.misses, base.plan_cache.misses));
  AppendField(&s, "cache_evictions",
              d(window.plan_cache.evictions, base.plan_cache.evictions));
  AppendField(&s, "cache_bytes_mb",
              static_cast<double>(window.plan_cache.bytes_used) / 1048576.0);
  AppendField(&s, "cache_entries",
              static_cast<double>(window.plan_cache.entries));
  AppendField(&s, "cache_upgrades",
              d(end.plan_cache.upgrades, base.plan_cache.upgrades));
  AppendField(&s, "frontend_thompson",
              d(window.frontend_thompson, base.frontend_thompson));
  AppendField(&s, "frontend_glushkov",
              d(window.frontend_glushkov, base.frontend_glushkov));
  AppendField(&s, "tier_simple", d(window.tier_simple, base.tier_simple));
  AppendField(&s, "tier_single_word",
              d(window.tier_single_word, base.tier_single_word));
  AppendField(&s, "tier_general", d(window.tier_general, base.tier_general));
  AppendField(&s, "worker_cache_evictions",
              d(window.worker_cache_evictions, base.worker_cache_evictions));
  AppendField(&s, "plans_upgraded", d(end.plans_upgraded, base.plans_upgraded));
  AppendField(&s, "sessions_upgraded",
              d(end.sessions_upgraded, base.sessions_upgraded));
  AppendField(&s, "sessions_retired",
              d(end.sessions_retired, base.sessions_retired));
  AppendField(&s, "rss_growth_mb", rss_after_window - rss_after_setup);
  s.back() = '}';
  s += ",\"values\":{";
  for (const auto& [name, v] : values) {
    s += "\"" + name + "\":";
    AppendNumbers(&s, v);
    s += ",";
  }
  if (s.back() == ',') s.pop_back();
  s += "},\"naive_error\":\"" + naive_why + "\"}\n";

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) Usage("cannot write --out");
  std::fputs(s.c_str(), f);
  std::fclose(f);
  if (args.trace && !args.spans.empty()) {
    std::FILE* sf = std::fopen(args.spans.c_str(), "w");
    if (sf == nullptr) Usage("cannot write --spans");
    for (const auto& r : results) r->spans.WriteTsv(sf);
    std::fclose(sf);
  }
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
