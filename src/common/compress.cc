#include "common/compress.h"

#include <zlib.h>

#include <algorithm>
#include <limits>

namespace rfid {

Status Compress(const std::vector<uint8_t>& input, std::vector<uint8_t>* out,
                int level) {
  if (level < 1 || level > 9) {
    return Status::InvalidArgument("zlib level must be in [1,9]");
  }
  uLong bound = compressBound(static_cast<uLong>(input.size()));
  out->resize(bound);
  uLongf dest_len = bound;
  int rc = compress2(out->data(), &dest_len,
                     input.empty() ? reinterpret_cast<const Bytef*>("")
                                   : input.data(),
                     static_cast<uLong>(input.size()), level);
  if (rc != Z_OK) {
    return Status::Internal("zlib compress2 failed with code " +
                            std::to_string(rc));
  }
  out->resize(dest_len);
  return Status::OK();
}

Status Decompress(const std::vector<uint8_t>& input,
                  std::vector<uint8_t>* out) {
  return Decompress(input.data(), input.size(), out);
}

Status Decompress(const uint8_t* data, size_t size,
                  std::vector<uint8_t>* out) {
  if (size > std::numeric_limits<uInt>::max()) {
    return Status::InvalidArgument("compressed input too large");
  }
  z_stream zs{};
  if (inflateInit(&zs) != Z_OK) {
    return Status::Internal("zlib inflateInit failed");
  }
  zs.next_in = const_cast<Bytef*>(data);
  zs.avail_in = static_cast<uInt>(size);
  // One stream inflates into the output, which doubles whenever it
  // fills; the bytes already produced stay where they are.
  out->resize(std::max<size_t>(size * 4, 64));
  size_t produced = 0;
  int rc = Z_OK;
  while (rc == Z_OK) {
    if (produced == out->size()) out->resize(out->size() * 2);
    const size_t room = std::min<size_t>(out->size() - produced,
                                         std::numeric_limits<uInt>::max());
    zs.next_out = out->data() + produced;
    zs.avail_out = static_cast<uInt>(room);
    rc = inflate(&zs, Z_NO_FLUSH);
    produced += room - zs.avail_out;
  }
  inflateEnd(&zs);
  // Z_BUF_ERROR here means the input ended before the stream did.
  if (rc != Z_STREAM_END) {
    out->clear();
    return Status::Corruption("zlib inflate failed with code " +
                              std::to_string(rc));
  }
  out->resize(produced);
  return Status::OK();
}

}  // namespace rfid
