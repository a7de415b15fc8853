#include "runtime/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "stats/csv.hpp"

namespace emptcp::runtime {

namespace detail {
std::atomic<bool> g_telemetry_on{false};
}  // namespace detail

namespace {

thread_local SpanBuffer* t_buffer = nullptr;

/// Microseconds with sub-µs precision, the unit Chrome trace "ts"/"dur"
/// fields use. Wall-clock output — locale-independent via snprintf.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

std::vector<SpanRecord> SpanBuffer::spans() const {
  std::vector<SpanRecord> out;
  const std::size_t n = spans_.size();
  out.reserve(n);
  // When the ring wrapped, the oldest retained record sits at
  // span_total_ % capacity; otherwise the vector is already in order.
  const std::size_t first =
      span_total_ > n ? static_cast<std::size_t>(span_total_) % kSpanCapacity
                      : 0;
  for (std::size_t i = 0; i < n; ++i) out.push_back(spans_[(first + i) % n]);
  return out;
}

std::vector<CounterSample> SpanBuffer::counters() const {
  std::vector<CounterSample> out;
  const std::size_t n = counters_.size();
  out.reserve(n);
  const std::size_t first =
      counter_total_ > n
          ? static_cast<std::size_t>(counter_total_) % kCounterCapacity
          : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(counters_[(first + i) % n]);
  }
  return out;
}

void SpanBuffer::clear() {
  spans_.clear();
  spans_.shrink_to_fit();
  counters_.clear();
  counters_.shrink_to_fit();
  span_total_ = 0;
  counter_total_ = 0;
  spans_dropped_ = 0;
  counters_dropped_ = 0;
}

Telemetry& Telemetry::instance() {
  static Telemetry* singleton = new Telemetry();  // never destroyed:
  // worker threads may record during static teardown of other objects.
  return *singleton;
}

void Telemetry::enable(bool on) {
  if (on && !enabled()) {
    const std::lock_guard<std::mutex> lock(mu_);
    anchor_ = std::chrono::steady_clock::now();
  }
  detail::g_telemetry_on.store(on, std::memory_order_relaxed);
}

std::uint64_t Telemetry::now_ns() const {
  const auto d = std::chrono::steady_clock::now() - anchor_;
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

SpanBuffer& Telemetry::local_buffer() {
  if (t_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto tid = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(std::make_unique<SpanBuffer>(tid));
    buffers_.back()->set_label("thread-" + std::to_string(tid));
    t_buffer = buffers_.back().get();
  }
  return *t_buffer;
}

void Telemetry::set_thread_label(std::string label) {
  SpanBuffer& buf = local_buffer();
  const std::lock_guard<std::mutex> lock(mu_);
  buf.set_label(std::move(label));
}

void Telemetry::counter(const char* name, double value) {
  local_buffer().push_counter(CounterSample{name, now_ns(), value});
}

const char* Telemetry::intern(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : interned_) {
    if (*s == name) return s->c_str();
  }
  interned_.push_back(std::make_unique<std::string>(name));
  return interned_.back()->c_str();
}

std::vector<Telemetry::SpanTotal> Telemetry::aggregate() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanTotal> by_name;  // by content, not pointer
  for (const auto& buf : buffers_) {
    for (const SpanRecord& r : buf->spans()) {
      SpanTotal& t = by_name[r.name];
      ++t.count;
      t.total_ns += r.dur_ns;
      if (r.dur_ns > t.max_ns) t.max_ns = r.dur_ns;
    }
  }
  std::vector<SpanTotal> out;
  out.reserve(by_name.size());
  for (auto& [name, total] : by_name) {
    total.name = name;
    out.push_back(std::move(total));
  }
  std::sort(out.begin(), out.end(), [](const SpanTotal& a, const SpanTotal& b) {
    if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
    return a.name < b.name;
  });
  return out;
}

std::uint64_t Telemetry::spans_dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) total += buf->spans_dropped();
  return total;
}

std::string Telemetry::to_chrome_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const auto& buf : buffers_) {
    const std::string tid = std::to_string(buf->tid());
    sep();
    out += R"({"ph":"M","pid":0,"tid":)" + tid +
           R"(,"name":"thread_name","args":{"name":)";
    stats::append_json_string(out, buf->label());
    out += "}}";
    for (const SpanRecord& r : buf->spans()) {
      sep();
      out += R"({"ph":"X","pid":0,"tid":)" + tid + R"(,"ts":)";
      append_us(out, r.start_ns);
      out += R"(,"dur":)";
      append_us(out, r.dur_ns);
      out += R"(,"name":)";
      stats::append_json_string(out, r.name == nullptr ? "?" : r.name);
      out += R"(,"cat":"emptcp","args":{"depth":)" +
             std::to_string(r.depth) + "}}";
    }
    for (const CounterSample& c : buf->counters()) {
      sep();
      out += R"({"ph":"C","pid":0,"tid":)" + tid + R"(,"ts":)";
      append_us(out, c.t_ns);
      out += R"(,"name":)";
      stats::append_json_string(out, c.name == nullptr ? "?" : c.name);
      out += R"(,"args":{"value":)";
      append_double(out, c.value);
      out += "}}";
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void Telemetry::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) buf->clear();
  anchor_ = std::chrono::steady_clock::now();
}

std::size_t Telemetry::thread_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return buffers_.size();
}

void ScopedSpan::begin(const char* name) {
  Telemetry& t = Telemetry::instance();
  buf_ = &t.local_buffer();
  name_ = name;
  depth_ = buf_->enter();
  start_ns_ = t.now_ns();
}

void ScopedSpan::end() {
  const std::uint64_t end_ns = Telemetry::instance().now_ns();
  buf_->exit();
  buf_->push_span(SpanRecord{
      name_, start_ns_, end_ns > start_ns_ ? end_ns - start_ns_ : 0, depth_});
}

}  // namespace emptcp::runtime
