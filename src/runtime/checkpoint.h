// Versioned binary checkpoint format for StreamRuntime (see
// StreamRuntime::Checkpoint / Restore in runtime/executor.h).
//
// Layout (all little-endian, via common/serial.h):
//
//   u32  magic        'LCKP'
//   u32  version      kCheckpointVersion
//   ...  database     EventDatabase::SaveTo
//   u32  tick         last completed tick
//   u64  num_ended    streams excluded from the watermark, then that many
//   u32  stream id    ended stream ids
//   u64  num_queries  then per query, in registration order:
//     u64 id          original QueryId (preserved on restore)
//     str text        query text (reparsed/reclassified on restore)
//     u8  has_state   1 when the session serialized its state directly
//     str state       opaque session blob (present iff has_state)
//   u32  crc          CRC-32 (serial::Crc32) of every preceding byte
//
// Restore checks the CRC before parsing anything, so a truncated or
// corrupted file fails with InvalidArgument. Sessions without direct state
// (samplers, and every session of a checkpoint taken mid-window) are
// restored by the catch-up hot registration uses: QuerySession::
// RunToHorizon to the checkpoint tick, which for a sampler draws the same
// worlds serving drew. Reorder-buffered updates are NOT checkpointed:
// producers must resend ticks newer than the checkpoint tick.
#ifndef LAHAR_RUNTIME_CHECKPOINT_H_
#define LAHAR_RUNTIME_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>

namespace lahar {

inline constexpr uint32_t kCheckpointMagic = 0x504B434CU;  // "LCKP"
inline constexpr uint32_t kCheckpointVersion = 2;
inline constexpr size_t kCheckpointTrailerBytes = 4;  // the u32 CRC

}  // namespace lahar

#endif  // LAHAR_RUNTIME_CHECKPOINT_H_
