// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), slicing-by-8: eight
// 256-entry tables consume eight input bytes per step, with a bytewise
// tail. The values are those of the classic one-table bytewise CRC, so
// checksums already written to disk stay valid.
//
// Used by the flat-index persistence format (ceci/index_io.h) to checksum
// the header, slab table, and every slab so corrupt or truncated index
// files are rejected with a clean Status instead of being enumerated.
#ifndef CECI_UTIL_CRC32_H_
#define CECI_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace ceci {

/// CRC-32 of `size` bytes at `data`. Chain blocks by passing the previous
/// result as `seed` (the empty-input CRC is 0).
std::uint32_t Crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace ceci

#endif  // CECI_UTIL_CRC32_H_
