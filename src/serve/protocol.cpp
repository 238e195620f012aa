#include "serve/protocol.h"

#include <sstream>

#include "base/error.h"
#include "base/obs/schema.h"

namespace fstg::serve {

using obs::json_quote;

std::string encode_frame(const std::string& payload) {
  require(payload.size() <= 0xFFFFFFFFull,
          "serve frame payload too large to encode");
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(kFramePrefixBytes + payload.size());
  out.push_back(static_cast<char>(n & 0xFF));
  out.push_back(static_cast<char>((n >> 8) & 0xFF));
  out.push_back(static_cast<char>((n >> 16) & 0xFF));
  out.push_back(static_cast<char>((n >> 24) & 0xFF));
  out += payload;
  return out;
}

FrameDecoder::FrameDecoder(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {}

void FrameDecoder::feed(const char* data, std::size_t n) {
  if (dead_) return;  // no point buffering past a protocol error
  buf_.append(data, n);
}

FrameDecoder::Outcome FrameDecoder::next(std::string* payload,
                                         std::string* error) {
  if (dead_) {
    if (error) *error = dead_error_;
    return Outcome::kError;
  }
  if (buf_.size() < kFramePrefixBytes) return Outcome::kNeedMore;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(buf_.data());
  const std::uint32_t n = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16) |
                          (static_cast<std::uint32_t>(p[3]) << 24);
  if (n > max_frame_bytes_) {
    dead_ = true;
    dead_error_ = "frame length " + std::to_string(n) +
                  " exceeds the limit of " +
                  std::to_string(max_frame_bytes_) + " bytes";
    buf_.clear();
    if (error) *error = dead_error_;
    return Outcome::kError;
  }
  if (buf_.size() < kFramePrefixBytes + n) return Outcome::kNeedMore;
  if (payload) payload->assign(buf_, kFramePrefixBytes, n);
  buf_.erase(0, kFramePrefixBytes + n);
  return Outcome::kFrame;
}

bool parse_serve_request(const std::string& text, ServeRequest* request,
                         std::string* error) {
  obs::Json doc;
  std::string err;
  if (!obs::check_json("fstg_serve_request", text, &doc, &err)) {
    if (error) *error = "bad request: " + err;
    return false;
  }
  // The schema bounds every number, so the casts below cannot overflow.
  ServeRequest req;
  req.id = doc.str("id");
  req.type = doc.str("type");
  req.circuit = doc.str("circuit");
  req.kiss2 = doc.str("kiss2");
  req.tests = doc.str("tests");
  req.uio = static_cast<int>(doc.num("uio", 0));
  req.xfer = static_cast<int>(doc.num("xfer", 1));
  const obs::Json* prune = doc.find("static_prune");
  req.static_prune = prune != nullptr && prune->boolean;
  req.budget.time_budget_ms = doc.num("time_budget_ms", 0);
  req.budget.max_expansions =
      static_cast<std::uint64_t>(doc.num("max_expansions", 0));
  *request = std::move(req);
  return true;
}

std::string serve_request_to_json(const ServeRequest& request) {
  std::ostringstream os;
  os << "{\"schema\": \"fstg.serve_request.v1\", \"type\": "
     << json_quote(request.type);
  if (!request.id.empty()) os << ", \"id\": " << json_quote(request.id);
  if (!request.circuit.empty())
    os << ", \"circuit\": " << json_quote(request.circuit);
  if (!request.kiss2.empty())
    os << ", \"kiss2\": " << json_quote(request.kiss2);
  if (!request.tests.empty())
    os << ", \"tests\": " << json_quote(request.tests);
  if (request.uio != 0) os << ", \"uio\": " << request.uio;
  if (request.xfer != 1) os << ", \"xfer\": " << request.xfer;
  if (request.static_prune) os << ", \"static_prune\": true";
  if (request.budget.time_budget_ms > 0.0)
    os << ", \"time_budget_ms\": "
       << static_cast<long long>(request.budget.time_budget_ms);
  if (request.budget.max_expansions > 0)
    os << ", \"max_expansions\": " << request.budget.max_expansions;
  os << "}";
  return os.str();
}

std::string serve_response_to_json(const ServeResponse& response) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  os << "{\"schema\": \"fstg.serve_response.v1\", \"id\": "
     << json_quote(response.id) << ", \"type\": " << json_quote(response.type)
     << ", \"status\": " << json_quote(response.status)
     << ", \"error\": " << json_quote(response.error)
     << ", \"wall_ms\": " << response.wall_ms << ", \"result\": "
     << (response.result_json.empty() ? std::string("{}")
                                      : response.result_json)
     << "}";
  std::string text = os.str();
  std::string error;
  require(obs::check_json("fstg_serve_response", text, nullptr, &error),
          "serve response failed self-validation: " + error);
  return text;
}

bool parse_serve_response(const std::string& text, ServeResponse* response,
                          std::string* error) {
  obs::Json doc;
  std::string err;
  if (!obs::check_json("fstg_serve_response", text, &doc, &err)) {
    if (error) *error = "bad response: " + err;
    return false;
  }
  ServeResponse resp;
  resp.id = doc.str("id");
  resp.type = doc.str("type");
  resp.status = doc.str("status");
  resp.error = doc.str("error");
  resp.wall_ms = doc.num("wall_ms");
  resp.result_json.clear();  // not round-tripped; callers re-parse `text`
  *response = std::move(resp);
  return true;
}

}  // namespace fstg::serve
