#include "runtime/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/knobs.hpp"

namespace sagesim::runtime {

namespace {

// Which pool (if any) the current thread belongs to, for locality-aware
// placement and Scheduler::current_worker().
thread_local Scheduler* tl_scheduler = nullptr;
thread_local int tl_worker = -1;

}  // namespace

unsigned resolve_worker_count(unsigned requested) {
  if (requested > 0) return requested;
  if (const auto env = knob_unsigned("SAGESIM_WORKERS"); env > 0)
    return static_cast<unsigned>(env);
  return std::max(1u, std::thread::hardware_concurrency());
}

Scheduler::Scheduler(unsigned workers) {
  const unsigned n = resolve_worker_count(workers);
  workers_.resize(n);
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

Scheduler& Scheduler::shared() {
  static Scheduler instance(0);
  return instance;
}

int Scheduler::current_worker() const {
  return tl_scheduler == this ? tl_worker : -1;
}

AnyFuture Scheduler::submit_any(SubmitOptions opts,
                                std::function<std::any()> fn) {
  if (opts.lane >= static_cast<int>(worker_count()))
    throw std::out_of_range("Scheduler::submit: lane " +
                            std::to_string(opts.lane) + " >= worker count " +
                            std::to_string(worker_count()));
  if (!fn)
    throw std::invalid_argument("Scheduler::submit: null task function");

  auto task = std::make_shared<detail::TaskState>();
  task->name = std::move(opts.name);
  task->owner = this;
  task->lane = opts.lane < 0 ? -1 : opts.lane;
  task->fn = std::move(fn);
  if (opts.timeout_s > 0.0)
    task->deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(opts.timeout_s));
  // +1 submission guard: the task cannot fire until registration against
  // every dependency is finished, even if deps complete concurrently.
  task->deps_remaining.store(static_cast<int>(opts.deps.size()) + 1,
                             std::memory_order_relaxed);
  std::shared_ptr<FaultInjector> injector;
  {
    std::lock_guard lock(mutex_);
    ++pending_;
    injector = fault_injector_;
  }
  if (injector) {
    // Decide faults here, in submission order, so the pattern for a given
    // seed is independent of worker interleaving.
    const FaultDecision plan = injector->plan(task->name);
    task->inject_preempt = plan.preempt;
    task->inject_delay_ms = plan.delay_ms;
  }

  for (const auto& dep : opts.deps) {
    const auto& ds = dep.state();
    bool fired = false;
    std::exception_ptr dep_error;
    {
      std::lock_guard lock(ds->mutex);
      if (ds->ready) {
        fired = true;
        dep_error = ds->error;
      } else {
        ds->children.push_back(task);
      }
    }
    if (fired) {
      if (dep_error) {
        std::lock_guard lock(task->mutex);
        if (!task->dep_error) task->dep_error = dep_error;
      }
      // Guard keeps the counter >= 1 here, so this never reaches zero.
      task->deps_remaining.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  AnyFuture future(task);
  if (task->deps_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
    make_ready(task);
  return future;
}

void Scheduler::make_ready(const std::shared_ptr<detail::TaskState>& task) {
  std::exception_ptr dep_error;
  {
    std::lock_guard lock(task->mutex);
    dep_error = task->dep_error;
  }
  if (task->cancel_requested.load(std::memory_order_acquire)) {
    detail::complete_task(task, {},
                          std::make_exception_ptr(TaskCancelled(task->name)));
  } else if (dep_error) {
    detail::complete_task(task, {}, dep_error);
  } else {
    {
      std::lock_guard lock(mutex_);
      if (task->lane >= 0) {
        workers_[static_cast<std::size_t>(task->lane)].pinned.push_back(task);
      } else {
        const int w = current_worker();
        const std::size_t spot = w >= 0 ? static_cast<std::size_t>(w)
                                        : next_spot_++ % workers_.size();
        workers_[spot].local.push_back(task);
      }
    }
    cv_.notify_all();
  }
}

bool Scheduler::try_pop(unsigned id,
                        std::shared_ptr<detail::TaskState>& out) {
  auto& self = workers_[id];
  if (!self.pinned.empty()) {
    out = std::move(self.pinned.front());
    self.pinned.pop_front();
    return true;
  }
  if (!self.local.empty()) {
    out = std::move(self.local.front());
    self.local.pop_front();
    return true;
  }
  const std::size_t n = workers_.size();
  for (std::size_t i = 1; i < n; ++i) {
    auto& victim = workers_[(id + i) % n];
    if (!victim.local.empty()) {
      out = std::move(victim.local.back());  // steal the coldest task
      victim.local.pop_back();
      return true;
    }
  }
  return false;
}

void Scheduler::worker_loop(unsigned id) {
  tl_scheduler = this;
  tl_worker = static_cast<int>(id);
  for (;;) {
    std::shared_ptr<detail::TaskState> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || try_pop(id, task); });
      if (!task) return;  // stopping and every queue we can serve is dry
    }
    run_task(task, id);
    task.reset();
  }
}

void Scheduler::run_task(const std::shared_ptr<detail::TaskState>& task,
                         unsigned id) {
  using detail::TaskStatus;
  TaskStatus expected = TaskStatus::kPending;
  if (!task->status.compare_exchange_strong(expected, TaskStatus::kRunning,
                                            std::memory_order_acq_rel))
    return;  // completed elsewhere (defensive; should not happen)

  if (task->cancel_requested.load(std::memory_order_acquire)) {
    detail::complete_task(task, {},
                          std::make_exception_ptr(TaskCancelled(task->name)));
    return;
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::any value;
  std::exception_ptr error;
  if (task->deadline && t0 > *task->deadline) {
    error = std::make_exception_ptr(DeadlineExceeded(task->name));
  } else if (task->inject_preempt) {
    // The lane's simulated instance was reclaimed: fail without running the
    // body so the failure is observable but side-effect free.
    error = std::make_exception_ptr(
        Preempted("task '" + task->name + "' lost its lane"));
  } else {
    if (task->inject_delay_ms > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(task->inject_delay_ms));
    try {
      value = task->fn();
    } catch (...) {
      error = std::current_exception();
    }
  }
  if (!task->name.empty()) {
    const auto t1 = std::chrono::steady_clock::now();
    prof::TraceEvent span;
    span.name = task->name;
    span.kind = prof::EventKind::kScheduler;
    span.start_s = std::chrono::duration<double>(t0 - epoch_).count();
    span.duration_s = std::chrono::duration<double>(t1 - t0).count();
    span.counters["worker"] = static_cast<double>(id);
    if (error) span.counters["failed"] = 1.0;
    if (task->inject_preempt) span.counters["preempted"] = 1.0;
    if (task->inject_delay_ms > 0.0)
      span.counters["injected_delay_ms"] = task->inject_delay_ms;
    timeline_.record(std::move(span));
  }
  detail::complete_task(task, std::move(value), error);
}

void Scheduler::on_task_finished() {
  std::lock_guard lock(mutex_);
  --pending_;
  ++completed_;
  if (pending_ == 0) idle_cv_.notify_all();
}

void Scheduler::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [&] { return pending_ == 0; });
}

Future<std::vector<std::any>> when_all(Scheduler& sched,
                                       std::vector<AnyFuture> futures,
                                       std::string name) {
  std::vector<AnyFuture> deps = futures;
  return sched.submit(
      std::move(name),
      [futs = std::move(futures)]() {
        std::vector<std::any> values;
        values.reserve(futs.size());
        for (const auto& f : futs) values.push_back(f.get_any());
        return values;
      },
      std::move(deps));
}

namespace detail {

// Iterative completion: dependency-failure and cancellation cascades walk a
// local worklist instead of recursing, so arbitrarily long chains complete
// in O(1) stack.
void complete_task(std::shared_ptr<TaskState> state, std::any value,
                   std::exception_ptr error) {
  struct Item {
    std::shared_ptr<TaskState> state;
    std::any value;
    std::exception_ptr error;
  };
  std::vector<Item> work;
  work.push_back({std::move(state), std::move(value), std::move(error)});

  while (!work.empty()) {
    Item item = std::move(work.back());
    work.pop_back();
    auto& s = item.state;

    std::vector<std::shared_ptr<TaskState>> children;
    std::vector<std::function<void(const std::shared_ptr<TaskState>&)>>
        callbacks;
    {
      std::lock_guard lock(s->mutex);
      if (s->ready)
        throw std::logic_error("Future: completed twice" +
                               (s->name.empty() ? "" : " (" + s->name + ")"));
      s->value = std::move(item.value);
      s->error = item.error;
      s->ready = true;
      s->fn = nullptr;  // release captures promptly
      children.swap(s->children);
      callbacks.swap(s->callbacks);
    }
    s->status.store(TaskStatus::kDone, std::memory_order_release);
    s->cv.notify_all();
    if (s->owner != nullptr) s->owner->on_task_finished();

    for (auto& child : children) {
      if (item.error) {
        std::lock_guard lock(child->mutex);
        if (!child->dep_error) child->dep_error = item.error;
      }
      if (child->deps_remaining.fetch_sub(1, std::memory_order_acq_rel) != 1)
        continue;  // other dependencies still outstanding
      std::exception_ptr child_dep_error;
      {
        std::lock_guard lock(child->mutex);
        child_dep_error = child->dep_error;
      }
      if (child->cancel_requested.load(std::memory_order_acquire)) {
        work.push_back({child, {},
                        std::make_exception_ptr(TaskCancelled(child->name))});
      } else if (child_dep_error) {
        work.push_back({child, {}, child_dep_error});
      } else {
        child->owner->make_ready(child);
      }
    }
    for (auto& cb : callbacks) cb(s);
  }
}

}  // namespace detail

}  // namespace sagesim::runtime
