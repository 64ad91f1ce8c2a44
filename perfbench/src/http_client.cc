#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

bool HttpClient::Connect(uint16_t port) {
  Close();
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = 30;  // a stuck server fails the run instead of hanging it
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
  pos_ = 0;
}

bool HttpClient::Fill() {
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 16)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  char chunk[1 << 16];
  while (true) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

bool HttpClient::ReadLine(std::string* line) {
  while (true) {
    size_t eol = buf_.find("\r\n", pos_);
    if (eol != std::string::npos) {
      line->assign(buf_, pos_, eol - pos_);
      pos_ = eol + 2;
      return true;
    }
    if (!Fill()) return false;
  }
}

bool HttpClient::ReadN(size_t n, std::string* out) {
  while (buf_.size() - pos_ < n) {
    if (!Fill()) return false;
  }
  out->append(buf_, pos_, n);
  pos_ += n;
  return true;
}

HttpResult HttpClient::Request(const std::string& method,
                               const std::string& target,
                               const std::string& body) {
  HttpResult result;
  auto fail = [&](const char* why) {
    result.transport_ok = false;
    result.error = why;
    result.done = Clock::now();
    Close();
    return result;
  };
  if (fd_ < 0 && !Connect(port_)) return fail("connect");

  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Content-Type: text/plain\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t off = 0;
  while (off < request.size()) {
    ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return fail("write");
    off += static_cast<size_t>(n);
  }
  result.sent = Clock::now();

  std::string line;
  if (!ReadLine(&line)) return fail("read status line");
  result.status_read = Clock::now();
  // "HTTP/1.1 200 OK"
  size_t sp = line.find(' ');
  if (sp == std::string::npos) return fail("malformed status line");
  result.status = std::atoi(line.c_str() + sp + 1);

  bool chunked = false;
  bool close_after = false;
  long long content_length = -1;
  while (true) {
    if (!ReadLine(&line)) return fail("read header");
    if (line.empty()) break;
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    std::string value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.erase(0, 1);
    if (name == "content-length") content_length = std::atoll(value.c_str());
    if (name == "transfer-encoding" && value.find("chunked") != std::string::npos) {
      chunked = true;
    }
    if (name == "connection" && value.find("close") != std::string::npos) {
      close_after = true;
    }
  }

  if (chunked) {
    while (true) {
      if (!ReadLine(&line)) return fail("read chunk size");
      size_t size = std::strtoull(line.c_str(), nullptr, 16);
      result.wire_body_bytes += line.size() + 2;
      if (size == 0) {
        // Trailer section: lines until the empty one.
        while (true) {
          if (!ReadLine(&line)) return fail("read chunk trailer");
          result.wire_body_bytes += line.size() + 2;
          if (line.empty()) break;
        }
        break;
      }
      if (!ReadN(size, &result.body)) return fail("read chunk");
      std::string crlf;
      if (!ReadN(2, &crlf)) return fail("read chunk end");
      result.wire_body_bytes += size + 2;
    }
  } else if (content_length >= 0) {
    if (!ReadN(static_cast<size_t>(content_length), &result.body)) {
      return fail("read body");
    }
    result.wire_body_bytes = static_cast<uint64_t>(content_length);
  } else {
    return fail("response without framing");
  }
  result.done = Clock::now();
  result.transport_ok = true;
  if (close_after) Close();
  return result;
}

std::string UrlEncode(const std::string& s) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

}  // namespace perfbench
