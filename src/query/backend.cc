#include "query/backend.h"

#include <utility>

#include "query/parser.h"

namespace scube {
namespace query {

namespace {

/// The cube a statement without FROM addresses.
constexpr char kDefaultCube[] = "default";

}  // namespace

Result<Statement> PrepareStatement(const std::string& text,
                                   const std::string& cursor, size_t streams,
                                   StreamOutcome* outcome) {
  auto parsed = Parse(text);
  if (!parsed.ok()) return parsed.status();
  Statement statement;
  statement.query = std::move(parsed).value();
  const Query& query = statement.query;
  outcome->canonical = Canonical(query);
  outcome->cube = query.cube.empty() ? kDefaultCube : query.cube;
  outcome->verb = VerbToString(query.verb);
  statement.query_hash = CursorQueryHash(query);
  if (cursor.empty()) return statement;

  // Resume: the token pins the snapshot the previous page walked, so the
  // stitched stream is deterministic even across publishes.
  auto decoded = DecodeCursor(cursor);
  if (!decoded.ok()) return decoded.status();
  if (decoded->cube != outcome->cube) {
    return Status::InvalidArgument(
        "cursor belongs to cube '" + decoded->cube +
        "', but the query addresses '" + outcome->cube + "'");
  }
  if (decoded->query_hash != statement.query_hash) {
    // A cursor resumes the stream that issued it; offsetting into a
    // different statement's stream would silently return wrong rows.
    return Status::InvalidArgument(
        "cursor was issued for a different query; resend the original "
        "statement (the page size may change, the rest may not)");
  }
  if (decoded->positions.size() != streams) {
    return Status::InvalidArgument(
        "cursor was issued for a " +
        std::to_string(decoded->positions.size()) +
        "-shard topology, but this backend has " + std::to_string(streams) +
        (streams == 1 ? " shard" : " shards") + "; restart the scan");
  }
  if (query.cube_version && *query.cube_version != decoded->version) {
    return Status::InvalidArgument(
        "cursor pins version " + std::to_string(decoded->version) +
        ", but the query pins @" + std::to_string(*query.cube_version));
  }
  statement.cursor = std::move(decoded).value();
  return statement;
}

QueryResponse QueryBackend::ExecuteOne(const std::string& text,
                                       const QueryContext& ctx) {
  VectorSink sink;
  QueryResponse response{ExecuteStreaming(text, sink, ctx, ""), {}};
  if (response.status.ok()) {
    response.result = sink.TakeResult();
    // The captured trailer carries the resume token; no token means the
    // row stream ended on this page.
    response.result.exhausted = response.result.next_cursor.empty();
  }
  return response;
}

std::vector<QueryResponse> QueryBackend::ExecuteBatch(
    const std::vector<std::string>& texts, const QueryContext& ctx) {
  std::vector<QueryResponse> responses;
  responses.reserve(texts.size());
  for (const std::string& text : texts) {
    responses.push_back(ExecuteOne(text, ctx));
  }
  return responses;
}

}  // namespace query
}  // namespace scube
