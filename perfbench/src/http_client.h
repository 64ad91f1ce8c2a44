// A minimal blocking HTTP/1.1 keep-alive client for the load generator.
//
// It is the benchmark's own code on purpose: the program's net:: client
// helpers may change under an optimisation, and a load generator that
// changes with them would move both sides of a comparison at once.

#ifndef SCUBE_PERFBENCH_HTTP_CLIENT_H_
#define SCUBE_PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>

#include "util.h"

namespace perfbench {

struct HttpResult {
  bool transport_ok = false;  ///< false: connect/read/write failed
  std::string error;          ///< transport failure reason
  int status = 0;
  std::string body;           ///< de-chunked body
  uint64_t wire_body_bytes = 0;  ///< body bytes as framed on the wire
  Clock::time_point sent;        ///< request fully written
  Clock::time_point status_read; ///< status line read (time to first byte)
  Clock::time_point done;        ///< full response read
};

class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient() { Close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool Connect(uint16_t port);
  void Close();

  /// One request on the keep-alive connection. On transport failure the
  /// connection is closed and the next Request reconnects; the caller
  /// counts the failure.
  HttpResult Request(const std::string& method, const std::string& target,
                     const std::string& body);

 private:
  bool Fill();
  bool ReadLine(std::string* line);
  bool ReadN(size_t n, std::string* out);

  int fd_ = -1;
  uint16_t port_ = 0;
  std::string buf_;
  size_t pos_ = 0;
};

/// Percent-encodes a query-string value.
std::string UrlEncode(const std::string& s);

}  // namespace perfbench

#endif  // SCUBE_PERFBENCH_HTTP_CLIENT_H_
