// zlib compression wrapper.
//
// Table 5 of the paper compares distributed state migration against a
// centralized baseline that ships all raw readings "with simple gzip
// compression of data"; this wrapper provides that baseline's compressor.
#ifndef RFID_COMMON_COMPRESS_H_
#define RFID_COMMON_COMPRESS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace rfid {

/// Deflates `input` at the given zlib level (1..9). Output replaces `*out`.
Status Compress(const std::vector<uint8_t>& input, std::vector<uint8_t>* out,
                int level = 6);

/// Inflates `input` produced by Compress in one pass. Output replaces
/// `*out`; a bad or truncated stream is Corruption.
Status Decompress(const std::vector<uint8_t>& input,
                  std::vector<uint8_t>* out);

/// Span form: inflates `size` bytes at `data` without requiring the caller
/// to copy a payload tail into its own vector first.
Status Decompress(const uint8_t* data, size_t size, std::vector<uint8_t>* out);

}  // namespace rfid

#endif  // RFID_COMMON_COMPRESS_H_
