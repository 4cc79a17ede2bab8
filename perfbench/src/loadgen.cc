#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <climits>

#include "server/server_stack.h"

namespace perfbench {

namespace {

constexpr std::int64_t kMs = 1000000;

void Queue(Task* t, std::int64_t due) {
  Sent s;
  s.due_ns = due;
  const std::uint64_t k = t->next++;
  const std::uint64_t id = t->id_base + k;
  if (t->bulk) {
    const BulkReq req = t->inputs->Bulk(t->stream, k);
    s.cls = req.cls;
    s.backend = req.backend;
    t->conn->QueueBulk(req, t->prefix[req.backend], id);
  } else {
    const PointReq req = t->inputs->Point(t->stream, k);
    s.cls = req.cls;
    s.backend = req.backend;
    t->conn->QueuePoint(req, t->prefix[req.backend], id);
  }
  if (t->gens != nullptr) {
    s.gen = t->gens[s.backend].load(std::memory_order_acquire);
  }
  t->sent.push_back(s);
  if (!t->conn->v2()) t->fifo.push_back(k);
}

void Record(Task* t, Sent* s, bool ok, Answer* a, std::int64_t now) {
  s->done_ns = now;
  s->ok = ok;
  ++t->answered;
  if (!ok) return;
  s->dist = a->dist;
  s->hash = a->hash;
  s->count = static_cast<std::uint32_t>(a->count);
  if (s->cls == Cls::kPath) {
    s->path = static_cast<std::int32_t>(t->paths.size());
    t->paths.push_back(std::move(a->nodes));
    a->nodes = {};
  }
}

void Drain(Task* t, std::int64_t now, Answer* a) {
  if (!t->conn->v2()) {
    std::string_view line;
    while (!t->fifo.empty() && t->conn->NextLine(&line)) {
      Sent& s = t->sent[t->fifo.front()];
      t->fifo.pop_front();
      const bool ok = DecodeV1(s.cls, line, a);
      if (!ok && t->first_error.empty()) t->first_error = line;
      Record(t, &s, ok, a, now);
    }
    return;
  }
  ah::server::FrameHeader header;
  std::string_view payload;
  while (t->conn->NextFrame(&header, &payload)) {
    const std::uint64_t k = header.request_id - t->id_base;
    if (header.request_id < t->id_base || k >= t->sent.size()) continue;
    Sent& s = t->sent[k];
    if (s.done_ns != 0) continue;
    const bool ok = DecodeV2(s.cls, header, payload, a);
    if (!ok && t->first_error.empty()) {
      t->first_error = ah::server::ReplyFrameToText(header, payload);
    }
    Record(t, &s, ok, a, now);
  }
}

}  // namespace

void RunTasks(std::vector<Task*> tasks, std::int64_t deadline_ns,
              LoopStats* stats, ah::server::ServerStack* stack) {
  // The loop sleeps in ppoll until the next request is due; Linux pads such
  // sleeps by the thread's timer slack (50 us by default), which would land
  // in every open-loop latency. 1 ns makes the wake-up as exact as it gets.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // Request ids: each task gets its own 2^40-wide range.
  static std::atomic<std::uint64_t> next_base{1};
  for (Task* t : tasks) {
    t->id_base = next_base.fetch_add(std::uint64_t{1} << 40);
    if (t->period_ns > 0) t->sent.reserve(t->count);
  }
  std::vector<pollfd> fds(tasks.size());
  Answer answer;
  std::int64_t next_sample = 0;
  while (true) {
    const std::int64_t now = NowNs();
    bool all_done = true;
    std::int64_t next_due = LLONG_MAX;
    for (Task* t : tasks) {
      if (t->dropped) continue;
      while (t->next < t->count) {
        std::int64_t due = now;
        if (t->period_ns > 0) {
          due = t->start_ns + static_cast<std::int64_t>(t->next) * t->period_ns;
          if (due > now) {
            next_due = std::min(next_due, due);
            break;
          }
          if (t->next - t->answered >= t->window) break;  // a reply wakes us
          stats->lag_ns.Add(now - due);
        } else if (now >= t->stop_ns || t->next - t->answered >= t->window) {
          break;
        }
        Queue(t, due);
      }
      if (t->conn->HasOutput() && !t->conn->Flush()) t->dropped = true;
      const bool sending_over =
          t->next >= t->count || (t->period_ns == 0 && now >= t->stop_ns);
      if (!t->dropped && !(sending_over && t->answered == t->next)) {
        all_done = false;
      }
    }
    if (all_done || now >= deadline_ns) break;
    if (stack != nullptr && now >= next_sample) {
      stats->in_flight_max =
          std::max(stats->in_flight_max, stack->admission().InFlight());
      next_sample = now + kMs;
    }
    const std::int64_t wait =
        std::clamp<std::int64_t>(next_due - now, 0, kMs);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      Task* t = tasks[i];
      fds[i].fd = t->dropped ? -1 : t->conn->fd();
      fds[i].events =
          static_cast<short>(POLLIN | (t->conn->HasOutput() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    const timespec ts{0, static_cast<long>(wait)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    const std::int64_t arrived = NowNs();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      Task* t = tasks[i];
      if (t->dropped || (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      const bool alive = t->conn->Receive();
      Drain(t, arrived, &answer);
      if (!alive) t->dropped = true;
    }
  }
}

}  // namespace perfbench
