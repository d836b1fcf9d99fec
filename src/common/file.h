// Whole-file reads and crash-safe whole-file replacement (checkpoints).
#ifndef LAHAR_COMMON_FILE_H_
#define LAHAR_COMMON_FILE_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace lahar {

/// Reads the whole file at `path`; NotFound when it cannot be opened.
Result<std::string> ReadFile(const std::string& path);

/// Replaces the file at `path` with `bytes` so that a crash at any point
/// leaves either the previous file or the complete new one: the bytes go to
/// a temporary file in the same directory, which is fsynced, renamed over
/// `path`, and then the directory is fsynced so the rename itself is
/// durable. On failure the temporary file is removed and `path` is left
/// as it was.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

}  // namespace lahar

#endif  // LAHAR_COMMON_FILE_H_
