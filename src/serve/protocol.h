#pragma once

#include <cstdint>
#include <string>

#include "base/robust/budget.h"

namespace fstg::serve {

/// --- `fstg serve` wire protocol ------------------------------------------
///
/// Length-prefixed JSON frames over a Unix or TCP stream socket: each
/// message is a 4-byte little-endian payload length followed by exactly
/// that many bytes of UTF-8 JSON. The prefix makes torn reads detectable
/// (an incomplete frame is simply "need more bytes") and caps a hostile
/// length up front — a frame longer than the negotiated maximum is a
/// protocol error before a single payload byte is buffered.
///
/// Payloads are schema-validated JSON documents: requests are
/// `fstg.serve_request.v1`, responses `fstg.serve_response.v1`
/// (schemas/fstg_serve_{request,response}.schema.json, checked by
/// obs::check_json). The full protocol, including the shedding and
/// exit-code semantics, is documented in docs/SERVING.md.

/// Bytes of the little-endian length prefix.
inline constexpr std::size_t kFramePrefixBytes = 4;

/// Default cap on one frame's payload. Requests embed at most a KISS2
/// machine and a test file; 4 MiB is orders of magnitude above both.
inline constexpr std::size_t kDefaultMaxFrameBytes = 4u << 20;

/// Frame `payload` for the wire (prefix + bytes). Payloads above 2^32-1
/// bytes cannot be framed; callers keep them under the frame cap anyway.
std::string encode_frame(const std::string& payload);

/// Incremental decoder for one stream direction. Feed raw socket bytes,
/// then drain complete frames. A frame whose prefix exceeds the cap is a
/// sticky error: the stream cannot be resynchronized past an untrusted
/// length, so the connection must be dropped.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

  enum class Outcome {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< *payload holds the next frame
    kError,     ///< protocol violation (*error set); decoder is dead
  };

  void feed(const char* data, std::size_t n);
  Outcome next(std::string* payload, std::string* error);

  std::size_t buffered_bytes() const { return buf_.size(); }

 private:
  std::string buf_;
  std::size_t max_frame_bytes_;
  bool dead_ = false;
  std::string dead_error_;
};

/// One parsed request. `type` is gen|sim|lint|metrics|ping|shutdown.
/// Pipeline requests name a built-in benchmark (`circuit`) or carry inline
/// KISS2 text (`kiss2`); sim additionally carries a test file (`tests`,
/// atpg/test_io.h format). Budget fields default to 0 = server default.
struct ServeRequest {
  std::string id;       ///< client-chosen correlation id (echoed back)
  std::string type;
  std::string circuit;
  std::string kiss2;
  std::string tests;
  int uio = 0;          ///< GeneratorOptions::uio_max_length
  int xfer = 1;         ///< GeneratorOptions::transfer_max_length
  /// sim only: run the static implication pre-flight and prune faults it
  /// proves untestable before simulation (GateLevelOptions::static_prune).
  bool static_prune = false;
  robust::Budget budget;
};

/// Parse + validate one request payload. False (with *error) on anything
/// malformed: bad JSON, wrong schema tag, unknown type, out-of-range
/// numbers. Never throws — this is the socket-facing trust boundary.
bool parse_serve_request(const std::string& text, ServeRequest* request,
                         std::string* error);

/// Render a request as schema fstg.serve_request.v1 (clients, tests).
std::string serve_request_to_json(const ServeRequest& request);

/// One response. `status` is ok|parse|error|budget|overloaded; `error` is
/// non-empty exactly when status != ok. `result_json` is a pre-rendered
/// JSON *object* embedded verbatim as the `result` field (e.g. a
/// fstg.metrics.v1 or fstg.lint.v1 document).
struct ServeResponse {
  std::string id;
  std::string type;
  std::string status = "ok";
  std::string error;
  double wall_ms = 0.0;
  std::string result_json = "{}";
};

/// Render as schema fstg.serve_response.v1. Self-checking like every JSON
/// writer here: the document is checked against its schema before it is
/// returned; a malformed writer throws instead of reaching the wire.
std::string serve_response_to_json(const ServeResponse& response);

/// Client-side parse of one response payload (the result object is
/// validated but not extracted). False (with *error) on malformed input.
bool parse_serve_response(const std::string& text, ServeResponse* response,
                          std::string* error);

}  // namespace fstg::serve
