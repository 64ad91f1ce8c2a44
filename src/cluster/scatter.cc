#include "cluster/scatter.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>

#include "cluster/merge.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "query/ast.h"
#include "query/executor.h"
#include "query/wire_format.h"

namespace scube {
namespace cluster {

namespace {

/// Span names must be string literals (TraceContext stores the pointer);
/// shards beyond the table share one generic label.
const char* ShardRttName(size_t shard) {
  static const char* kNames[] = {
      "shard[0].rtt", "shard[1].rtt", "shard[2].rtt", "shard[3].rtt",
      "shard[4].rtt", "shard[5].rtt", "shard[6].rtt", "shard[7].rtt",
  };
  return shard < 8 ? kNames[shard] : "shard[n].rtt";
}

/// The front-end's HttpStatusFor, inverted: a shard's buffered error
/// response mapped back onto the status it left the shard with.
StatusCode CodeForHttpStatus(int status) {
  switch (status) {
    case 400:
      return StatusCode::kInvalidArgument;
    case 404:
      return StatusCode::kNotFound;
    case 503:
      return StatusCode::kUnavailable;
    case 504:
      return StatusCode::kDeadlineExceeded;
    default:
      return StatusCode::kInternal;
  }
}

/// Parses the JSON string whose opening '"' is at (*pos); leaves *pos one
/// past the closing quote. Understands exactly what JsonEscape emits.
bool ParseJsonString(const std::string& body, size_t* pos, std::string* out) {
  size_t i = *pos;
  while (i < body.size() && (body[i] == ' ' || body[i] == '\t')) ++i;
  if (i >= body.size() || body[i] != '"') return false;
  ++i;
  out->clear();
  while (i < body.size()) {
    char c = body[i];
    if (c == '"') {
      *pos = i + 1;
      return true;
    }
    if (c == '\\') {
      if (i + 1 >= body.size()) return false;
      char e = body[i + 1];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (i + 5 >= body.size()) return false;
          auto hex = ParseHexU64(body.substr(i + 2, 4));
          if (!hex.ok()) return false;
          // JsonEscape only \u-encodes control bytes, so the low byte is
          // the whole code point.
          *out += static_cast<char>(*hex & 0xFF);
          i += 4;
          break;
        }
        default:
          return false;
      }
      i += 2;
      continue;
    }
    *out += c;
    ++i;
  }
  return false;
}

/// Reads the rest of a buffered response. The connection goes back to the
/// idle list when the body was framed; a body read to EOF leaves no
/// connection to keep.
Status ReadBody(ShardClient::Call* call, net::HttpResponseHead* head,
                std::string* body) {
  Status read = net::ReadHttpBody(call->reader(), head, body);
  if (read.ok() && (head->chunked || head->length)) call->Release();
  return read;
}

/// Decimal digits at (*pos) as a uint64, advancing past them; false when
/// there are none or they do not fit in 64 bits.
bool ParseJsonUint(const std::string& body, size_t* pos, uint64_t* out) {
  const char* begin = body.data() + *pos;
  auto [end, error] =
      std::from_chars(begin, body.data() + body.size(), *out);
  if (error != std::errc()) return false;
  *pos += static_cast<size_t>(end - begin);
  return true;
}

}  // namespace

std::string ParseErrorBody(const std::string& body) {
  size_t pos = body.find("\"error\":");
  if (pos != std::string::npos) {
    pos += std::strlen("\"error\":");
    std::string message;
    if (ParseJsonString(body, &pos, &message)) return message;
  }
  std::string fallback(Trim(body));
  return fallback.empty() ? "(empty error body)" : fallback;
}

// Fixed-shape: this JSON is produced by this repo's own HandleCubes, so a
// key scan (not a general JSON parser) is exact.
Result<std::vector<query::CubeInfo>> ParseCubesJson(const std::string& body) {
  std::vector<query::CubeInfo> cubes;
  constexpr char kNameKey[] = "\"name\":";
  size_t pos = body.find(kNameKey);
  while (pos != std::string::npos) {
    pos += std::strlen(kNameKey);
    query::CubeInfo info;
    if (!ParseJsonString(body, &pos, &info.name)) {
      return Status::ParseError("malformed /cubes body: bad cube name");
    }
    auto number_after = [&](const char* key, uint64_t* out) {
      size_t k = body.find(key, pos);
      if (k == std::string::npos) return false;
      k += std::strlen(key);
      if (!ParseJsonUint(body, &k, out)) return false;
      pos = k;
      return true;
    };
    if (!number_after("\"version\":", &info.version)) {
      return Status::ParseError("malformed /cubes body: bad version");
    }
    size_t ret = body.find("\"retained\":[", pos);
    if (ret == std::string::npos) {
      return Status::ParseError("malformed /cubes body: missing retained");
    }
    pos = ret + std::strlen("\"retained\":[");
    while (pos < body.size() && body[pos] != ']') {
      if (body[pos] == ',') {
        ++pos;
        continue;
      }
      uint64_t v = 0;
      if (!ParseJsonUint(body, &pos, &v)) {
        return Status::ParseError("malformed /cubes body: bad retained list");
      }
      info.retained.push_back(v);
    }
    if (!number_after("\"cells\":", &info.cells) ||
        !number_after("\"defined_cells\":", &info.defined_cells)) {
      return Status::ParseError("malformed /cubes body: bad cell counts");
    }
    cubes.push_back(std::move(info));
    pos = body.find(kNameKey, pos);
  }
  return cubes;
}

// ---------------------------------------------------------------------------
// ShardStream: one shard's in-flight wire stream during a scatter.

struct ScatterExecutor::ShardStream {
  size_t index = 0;
  ShardClient::Call call;  ///< this request's connection to the shard

  std::unique_ptr<net::ChunkedBodyReader> body;
  std::string buf;        ///< undecoded tail of the body
  size_t pos = 0;         ///< parse position into buf
  bool body_done = false; ///< terminal chunk consumed, connection released

  Status error;           ///< fan-out failure (transport / HTTP error)
  bool ended = false;     ///< parsed to the end of the wire stream
  bool dropped = false;   ///< removed from the request (allow_partial)

  query::ResultHeader header;
  bool have_header = false;
  query::ResultRow row;   ///< the shard's current (unconsumed) row
  bool have_row = false;

  uint64_t cells_scanned = 0;
  bool have_trailer = false;
  std::string shard_cursor;  ///< shard's own resume token (unused; sanity)

  bool have_status = false;  ///< the closing S line arrived
  StatusCode code = StatusCode::kOk;
  std::string message;
  bool cache_hit = false;

  /// Next '\n'-terminated line of the stream body. `*have` false at a
  /// clean end of stream; a body ending mid-line is a transport error.
  /// The connection goes back to the idle list at the terminal chunk.
  Status NextLine(std::string* line, bool* have);

  /// Pulls wire events until the next row (`stop_at_row`) or the end of
  /// the stream, recording H/T/S along the way. At the end, a missing S
  /// line is a transport failure and a non-OK S is the shard's own
  /// execution error.
  Status Advance(bool stop_at_row);

  /// Closes the connection unless it was already released.
  void Abandon() {
    body.reset();
    call = ShardClient::Call();
  }
};

Status ScatterExecutor::ShardStream::NextLine(std::string* line, bool* have) {
  ShardStream& s = *this;
  *have = false;
  for (;;) {
    size_t nl = s.buf.find('\n', s.pos);
    if (nl != std::string::npos) {
      line->assign(s.buf, s.pos, nl - s.pos);
      s.pos = nl + 1;
      *have = true;
      return Status::OK();
    }
    if (s.body_done) {
      if (s.pos < s.buf.size()) {
        return Status::IoError("shard stream ended mid-line");
      }
      return Status::OK();
    }
    if (s.pos > 0) {
      s.buf.erase(0, s.pos);
      s.pos = 0;
    }
    auto more = s.body->ReadSome(&s.buf);
    if (!more.ok()) return more.status();
    if (!*more) {
      // The body ended exactly at its framing: the connection sits at a
      // message boundary and serves the next request.
      s.body_done = true;
      s.body.reset();
      s.call.Release();
    }
  }
}

Status ScatterExecutor::ShardStream::Advance(bool stop_at_row) {
  ShardStream& s = *this;
  while (!s.ended) {
    std::string line;
    bool have = false;
    Status read = NextLine(&line, &have);
    if (!read.ok()) return read;
    if (!have) {
      s.ended = true;
      if (!s.have_status) {
        return Status::IoError("shard stream ended without a status line");
      }
      if (s.code != StatusCode::kOk) return Status(s.code, s.message);
      return Status::OK();
    }
    auto event = query::ParseWireLine(line);
    if (!event.ok()) return event.status();
    switch (event->kind) {
      case query::WireEvent::Kind::kHeader:
        s.header = std::move(event->header);
        s.have_header = true;
        break;
      case query::WireEvent::Kind::kRow:
        if (stop_at_row) {
          s.row = std::move(event->row);
          s.have_row = true;
          return Status::OK();
        }
        break;
      case query::WireEvent::Kind::kTrailer:
        s.cells_scanned = event->cells_scanned;
        s.shard_cursor = std::move(event->next_cursor);
        s.have_trailer = true;
        break;
      case query::WireEvent::Kind::kStatus:
        s.have_status = true;
        s.code = event->code;
        s.message = std::move(event->message);
        s.cache_hit = event->cache_hit;
        break;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ScatterExecutor

ScatterExecutor::ScatterExecutor(std::vector<ShardSpec> shards,
                                 ScatterOptions options)
    : options_(std::move(options)) {
  clients_.reserve(shards.size());
  rtt_.reserve(shards.size());
  for (ShardSpec& spec : shards) {
    clients_.push_back(
        std::make_unique<ShardClient>(std::move(spec), options_.client));
    rtt_.push_back(std::make_unique<trace::LatencyHistogram>());
  }
}

ScatterExecutor::~ScatterExecutor() = default;

query::ServiceStats ScatterExecutor::stats() const {
  query::ServiceStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.rejected = 0;  // admission control lives on the shards
  return s;
}

std::vector<query::CubeInfo> ScatterExecutor::ListCubes() const {
  const size_t n = clients_.size();
  std::vector<ShardClient::Call> calls;
  calls.reserve(n);
  for (const auto& client : clients_) {
    calls.push_back(client->Send("GET", "/cubes"));
  }
  std::vector<std::vector<query::CubeInfo>> per(n);
  std::vector<char> responded(n, 0);
  for (size_t i = 0; i < n; ++i) {
    auto head = calls[i].ReadHead();
    if (!head.ok() || head->status != 200) continue;
    std::string body;
    if (!ReadBody(&calls[i], &*head, &body).ok()) continue;
    auto cubes = ParseCubesJson(body);
    if (!cubes.ok()) continue;
    per[i] = std::move(cubes).value();
    responded[i] = 1;
  }

  size_t base = n;
  for (size_t i = 0; i < n; ++i) {
    if (responded[i]) {
      base = i;
      break;
    }
  }
  std::vector<query::CubeInfo> out;
  if (base == n) return out;

  for (const query::CubeInfo& info : per[base]) {
    query::CubeInfo merged;
    merged.name = info.name;
    merged.version = info.version;
    std::vector<uint64_t> retained = info.retained;
    std::sort(retained.begin(), retained.end());
    bool agree = true;
    for (size_t j = 0; j < n && agree; ++j) {
      if (!responded[j]) continue;
      const query::CubeInfo* found = nullptr;
      for (const query::CubeInfo& c : per[j]) {
        if (c.name == info.name) {
          found = &c;
          break;
        }
      }
      if (found == nullptr || found->version != info.version) {
        agree = false;
        break;
      }
      std::vector<uint64_t> theirs = found->retained;
      std::sort(theirs.begin(), theirs.end());
      std::vector<uint64_t> common;
      std::set_intersection(retained.begin(), retained.end(), theirs.begin(),
                            theirs.end(), std::back_inserter(common));
      retained = std::move(common);
      merged.cells += found->cells;
      merged.defined_cells += found->defined_cells;
    }
    if (!agree) continue;
    merged.retained = std::move(retained);
    out.push_back(std::move(merged));
  }
  return out;
}

query::StreamOutcome ScatterExecutor::ExecuteStreaming(
    const std::string& text, query::RowSink& sink,
    const query::QueryContext& ctx, const std::string& cursor) {
  query::StreamOutcome outcome;
  outcome.text = text;
  accepted_.fetch_add(1, std::memory_order_relaxed);

  auto finish = [this, &outcome](Status status) -> query::StreamOutcome& {
    outcome.status = std::move(status);
    if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    return outcome;
  };

  if (clients_.empty()) {
    return finish(Status::Internal("scatter executor has no shards"));
  }
  const size_t n = clients_.size();
  const query::QueryContext context =
      ctx.WithDefaultDeadline(options_.default_deadline_ms);

  auto statement = query::PrepareStatement(text, cursor, n, &outcome);
  if (!statement.ok()) return finish(statement.status());
  const query::Query& q = statement->query;

  // Degrading to a shard subset only ever applies to analytic verbs: an
  // incomplete TOPK/SURPRISES/REVERSALS answer is still a meaningful
  // ranking, an incomplete SLICE is silently wrong data.
  const bool partial_ok =
      context.allow_partial && (q.verb == query::Verb::kTopK ||
                                q.verb == query::Verb::kSurprises ||
                                q.verb == query::Verb::kReversals);

  // TOPK with an explicit ORDER BY is the one verb shape where the
  // selection order (ranked index, count-capped at k) differs from the
  // emission order (the ORDER BY key). Merging shard streams in emission
  // order and stopping at k would pick the k best *by the ORDER BY key*
  // from the union of shard-local top-ks — the wrong set. Instead the
  // router asks shards for their natural ranked streams, merges the
  // global top-k exactly as for plain TOPK, then re-sorts with the
  // executor's own SortRows (stable: ties keep ranked order, matching
  // the single node's stable_sort) and pages the sorted rows locally.
  const bool ranked_reorder =
      q.verb == query::Verb::kTopK && q.order.has_value();

  WallTimer timer;

  std::vector<ShardStream> streams(n);
  for (size_t i = 0; i < n; ++i) streams[i].index = i;

  bool used_partial = false;
  auto live_count = [&streams]() {
    size_t count = 0;
    for (const ShardStream& s : streams) {
      if (!s.dropped) ++count;
    }
    return count;
  };
  auto shard_error = [this](size_t i, const Status& s) {
    return Status(s.code(), "shard " + std::to_string(i) + " (" +
                                clients_[i]->spec().Label() +
                                "): " + s.message());
  };
  // Drops shard i from the request when the partial policy allows it
  // (analytic verb, opted in, at least one other shard still live).
  auto try_drop = [&](size_t i) {
    if (!partial_ok || live_count() <= 1) return false;
    streams[i].Abandon();
    streams[i].dropped = true;
    used_partial = true;
    return true;
  };
  auto abandon_all = [&streams]() {
    for (ShardStream& s : streams) s.Abandon();
  };
  auto sum_scanned = [&streams]() {
    uint64_t total = 0;
    for (const ShardStream& s : streams) {
      if (!s.dropped && s.have_trailer) total += s.cells_scanned;
    }
    return total;
  };

  // --- the pin: a cursor or FROM name@version names the version the
  // shards must answer at; a fresh statement goes out unpinned, and the
  // shards' stream heads must agree on one version. `consumed` counts the
  // rows of each shard's stream the client has taken, and `skip` is the
  // pager's offset: a fresh statement's OFFSET (a resumed one consumed it
  // on its first page).
  std::optional<uint64_t> pin = q.cube_version;
  std::vector<uint64_t> consumed(n, 0);
  uint64_t skip = 0;
  if (statement->cursor) {
    pin = statement->cursor->version;
    consumed = std::move(statement->cursor->positions);
  } else {
    if (context.Expired()) {
      return finish(
          Status::DeadlineExceeded("deadline expired before fan-out"));
    }
    skip = q.offset.value_or(0);
  }
  // ranked_reorder pagination is positional in the *sorted* stream: the
  // global selection is recomputed every page, so per-shard resume
  // positions are meaningless, and the cursor keeps the sorted position in
  // slot 0 instead — unambiguous because the query hash pins the
  // statement shape.
  if (ranked_reorder) {
    skip += consumed[0];
    consumed.assign(n, 0);
  }

  // --- per-shard statements. Each shard is asked for the page-relevant
  // slice of ITS OWN stream: resume at consumed[i], deliver at most
  // skip + page + 1 rows (the +1 row proves non-exhaustion without a
  // second round trip). TOPK additionally caps global pops at k below.
  std::optional<uint64_t> pops_cap;
  if (q.verb == query::Verb::kTopK) {
    uint64_t used = 0;
    for (uint64_t c : consumed) used += c;
    pops_cap = q.k > used ? q.k - used : 0;
  }

  std::string target = "/query?stream=1&format=wire";
  if (context.has_deadline()) {
    double remaining = context.RemainingMillis();
    if (remaining < 1.0) remaining = 1.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", remaining);
    target += "&deadline_ms=";
    target += buf;
  }

  // --- fan out on this thread: write every shard's request, then read
  // the heads in shard order. A shard's rtt runs from its request written
  // to its head read, so it includes the heads read before it.
  {
    trace::Span fanout(context.trace, "scatter.fanout");
    std::vector<trace::TraceContext::Clock::time_point> sent(n);
    for (size_t i = 0; i < n; ++i) {
      query::Query shard_q = q;
      shard_q.cube = outcome.cube;
      shard_q.cube_version = pin;
      if (consumed[i] > 0) {
        shard_q.offset = consumed[i];
      } else {
        shard_q.offset.reset();
      }
      // skip + page + 1 past UINT64_MAX would wrap: ask for every row then.
      if (q.limit && !ranked_reorder &&
          *q.limit < std::numeric_limits<uint64_t>::max() - skip) {
        shard_q.limit = skip + *q.limit + 1;
      } else {
        shard_q.limit.reset();
      }
      if (ranked_reorder) {
        // Natural ranked streams: the shard's local top-k in selection
        // order, bounded by k rows — the router sorts and pages.
        shard_q.order.reset();
      }
      streams[i].call =
          clients_[i]->Send("POST", target, query::Canonical(shard_q));
      sent[i] = trace::TraceContext::Clock::now();
    }
    for (size_t i = 0; i < n; ++i) {
      ShardStream& s = streams[i];
      auto head = s.call.ReadHead();
      auto read = trace::TraceContext::Clock::now();
      rtt_[i]->Observe(
          std::chrono::duration<double, std::milli>(read - sent[i]).count());
      if (context.trace != nullptr) {
        context.trace->Record(ShardRttName(i), sent[i], read);
      }
      if (!head.ok()) {
        s.error = head.status();
        continue;
      }
      if (head->status != 200) {
        // The shard rejected the statement before streaming (parse error,
        // unknown cube or version, shed): pass its own message on.
        std::string body;
        Status body_read = ReadBody(&s.call, &*head, &body);
        s.error = Status(CodeForHttpStatus(head->status),
                         body_read.ok()
                             ? ParseErrorBody(body)
                             : "HTTP " + std::to_string(head->status));
        continue;
      }
      if (!head->chunked) {
        s.error = Status::IoError("streamed response is not chunked");
        continue;
      }
      s.body = std::make_unique<net::ChunkedBodyReader>(s.call.reader());
    }
  }
  for (size_t i = 0; i < n; ++i) {
    ShardStream& s = streams[i];
    if (s.error.ok()) continue;
    Status err = shard_error(i, s.error);
    if (!try_drop(i)) {
      abandon_all();
      return finish(std::move(err));
    }
  }

  // --- prime: the head and first row (or end) of every stream, before
  // Begin, so any early shard failure can still be answered as a plain
  // HTTP error.
  for (size_t i = 0; i < n; ++i) {
    ShardStream& s = streams[i];
    if (s.dropped) continue;
    Status st = s.Advance(/*stop_at_row=*/true);
    if (!st.ok()) {
      Status err = shard_error(i, st);
      if (!try_drop(i)) {
        abandon_all();
        return finish(std::move(err));
      }
    }
  }

  // --- one version: every live stream head names the pin, or, unpinned,
  // the same version as the first live shard's. A rolling publish that
  // has reached only some shards must not produce a mixed answer.
  size_t first = n;
  for (size_t i = 0; i < n; ++i) {
    ShardStream& s = streams[i];
    if (s.dropped) continue;
    Status bad;
    if (!s.have_header) {
      bad = Status::IoError("shard stream has no result header");
    } else if (pin && s.header.version != *pin) {
      bad = Status::Internal(
          "answered version " + std::to_string(s.header.version) +
          " of cube '" + outcome.cube + "', but the statement pins version " +
          std::to_string(*pin));
    }
    if (!bad.ok()) {
      Status err = shard_error(i, bad);
      if (!try_drop(i)) {
        abandon_all();
        return finish(std::move(err));
      }
      continue;
    }
    if (first == n) {
      first = i;
    } else if (s.header.version != streams[first].header.version) {
      abandon_all();
      return finish(Status::Unavailable(
          "cube '" + outcome.cube + "' is at version " +
          std::to_string(streams[first].header.version) + " on shard " +
          std::to_string(first) + " (" + clients_[first]->spec().Label() +
          ") but version " + std::to_string(s.header.version) +
          " on shard " + std::to_string(i) + " (" +
          clients_[i]->spec().Label() +
          "); retry once the rolling publish settles"));
    }
  }
  const query::ResultHeader& header = streams[first].header;
  const uint64_t version = header.version;
  outcome.cube_version = version;

  outcome.begun = true;
  if (!sink.Begin(header)) {
    // Mirror the single-node path: an aborted stream is still closed with
    // a trailer, reports OK, and never carries a resume cursor.
    abandon_all();
    query::ResultTrailer trailer;
    trailer.cells_scanned = sum_scanned();
    sink.Finish(trailer);
    outcome.cells_scanned = trailer.cells_scanned;
    outcome.exec_ms = timer.Millis();
    return finish(Status::OK());
  }


  // --- the merge: pop the globally-smallest key until the page fills,
  // the global TOPK budget is spent, or every stream runs dry. A row the
  // pager takes, skipped or delivered, counts in its shard's position and
  // toward the TOPK cap; the row offered past the page stays with its
  // shard, so the next page starts there.
  KWayMerger merger;
  for (const ShardStream& s : streams) {
    if (!s.dropped && s.have_row) merger.Push(s.index, s.row.skey);
  }

  query::Pager pager(skip, q.limit, sink);
  uint64_t pops = 0;
  bool cap_break = false;
  Status merge_error;
  std::vector<query::ResultRow> ranked_rows;  // ranked_reorder selection
  query::DeadlineTicker ticker(context, 64);
  {
    trace::Span merge_span(context.trace, "scatter.merge");
    while (!merger.empty()) {
      if (pops_cap && pops >= *pops_cap) {
        // The global top-k is complete even though shards (each asked for
        // their own top k) still hold rows.
        cap_break = true;
        break;
      }
      if (ticker.Tick()) {
        merge_error =
            Status::DeadlineExceeded("deadline expired during scatter merge");
        break;
      }
      size_t si = merger.Pop();
      ShardStream& s = streams[si];
      auto take = [&s]() -> query::ResultRow&& { return std::move(s.row); };
      if (ranked_reorder) {
        // Selection only: the page is cut after the re-sort below.
        ranked_rows.push_back(take());
      } else if (!pager.Offer(take)) {
        break;  // past the page, or the client is gone
      }
      s.have_row = false;
      ++consumed[si];
      ++pops;
      Status advanced = s.Advance(/*stop_at_row=*/true);
      if (!advanced.ok()) {
        Status err = shard_error(si, advanced);
        if (!try_drop(si)) {
          merge_error = std::move(err);
          break;
        }
        continue;
      }
      if (s.have_row) merger.Push(si, s.row.skey);
    }
  }

  if (ranked_reorder && merge_error.ok()) {
    // The merged pops are the global top-k in ranked order — exactly the
    // single node's pre-sort sequence. SortRows is stable, so ties keep
    // that order, and the sorted stream is byte-identical.
    query::SortRows(*q.order, &ranked_rows);
    for (query::ResultRow& row : ranked_rows) {
      if (ticker.Tick()) {
        merge_error =
            Status::DeadlineExceeded("deadline expired during scatter merge");
        break;
      }
      if (!pager.Offer(
              [&row]() -> query::ResultRow&& { return std::move(row); })) {
        break;
      }
    }
  }

  if (!merge_error.ok()) {
    // Post-Begin failure: rows are already on the wire, so close the
    // stream properly (no cursor — a broken merge has no resume point)
    // and surface the error status for the envelope/trailing diagnostics.
    abandon_all();
    query::ResultTrailer trailer;
    trailer.cells_scanned = sum_scanned();
    sink.Finish(trailer);
    outcome.rows = pager.emitted();
    outcome.cells_scanned = trailer.cells_scanned;
    outcome.exec_ms = timer.Millis();
    return finish(std::move(merge_error));
  }

  if (pager.aborted()) {
    // Client gone: leftover shard bodies may be unbounded, tear down.
    abandon_all();
  } else {
    // Page filled / budget spent: the leftovers are bounded by the LIMIT
    // pushdown, so drain them — the connections stay reusable and the
    // shard trailers (scan accounting, cache bits) become available.
    for (ShardStream& s : streams) {
      if (s.dropped || s.ended) continue;
      s.have_row = false;
      if (!s.Advance(/*stop_at_row=*/false).ok()) s.Abandon();
    }
  }

  bool exhausted;
  if (pager.aborted() || pager.more()) {
    exhausted = false;
  } else if (cap_break) {
    exhausted = true;
  } else {
    // Merger drained. With the +1-row shard limit this implies every
    // shard's stream truly ended, but trust the shards' own cursors over
    // the inference.
    exhausted = true;
    for (const ShardStream& s : streams) {
      if (!s.dropped && !s.shard_cursor.empty()) exhausted = false;
    }
  }

  query::ResultTrailer trailer;
  trailer.cells_scanned = sum_scanned();
  // A partial answer gets no cursor: resuming it could reach the failed
  // shard again and stitch rows the first page never saw.
  if (!pager.aborted() && !exhausted && !used_partial) {
    if (ranked_reorder) {
      // Positional resume in the sorted stream (see `skip` above).
      consumed.assign(n, 0);
      consumed[0] = skip + pager.emitted();
    }
    trailer.next_cursor = query::EncodeCursor(query::Cursor{
        outcome.cube, version, statement->query_hash, std::move(consumed)});
  }
  outcome.next_cursor = trailer.next_cursor;
  sink.Finish(trailer);

  bool cache_hit = true;
  for (const ShardStream& s : streams) {
    if (s.dropped) continue;
    if (!s.have_status || !s.cache_hit) cache_hit = false;
  }
  outcome.cache_hit = cache_hit;
  outcome.rows = pager.emitted();
  outcome.cells_scanned = trailer.cells_scanned;
  outcome.exec_ms = timer.Millis();
  if (used_partial) partial_.fetch_add(1, std::memory_order_relaxed);
  return finish(Status::OK());
}

// ---------------------------------------------------------------------------
// Metrics

void ScatterExecutor::AppendBackendMetrics(std::string* out) const {
  const size_t n = clients_.size();
  auto shard_label = [this](size_t i) {
    return "shard=\"" + std::to_string(i) + "\",backend=\"" +
           clients_[i]->spec().Label() + "\"";
  };

  trace::AppendFamilyHeader(
      out, "scubed_shard_requests_total", "counter",
      "Round trips the scatter router attempted per shard.");
  for (size_t i = 0; i < n; ++i) {
    trace::AppendSample(out, "scubed_shard_requests_total", shard_label(i),
                        std::to_string(clients_[i]->health().requests));
  }
  trace::AppendFamilyHeader(
      out, "scubed_shard_failures_total", "counter",
      "Round trips that exhausted every replica of a shard.");
  for (size_t i = 0; i < n; ++i) {
    trace::AppendSample(out, "scubed_shard_failures_total", shard_label(i),
                        std::to_string(clients_[i]->health().failures));
  }
  trace::AppendCounter(out, "scubed_scatter_partial_total",
                       partial_.load(std::memory_order_relaxed),
                       "Requests answered from a shard subset "
                       "(allow_partial).");

  trace::AppendFamilyHeader(
      out, "scubed_shard_rtt_seconds", "histogram",
      "Shard stream head latency (request out to head in).");
  for (size_t i = 0; i < n; ++i) {
    trace::AppendHistogramSeries(out, "scubed_shard_rtt_seconds",
                                 shard_label(i), *rtt_[i]);
  }
}

}  // namespace cluster
}  // namespace scube
