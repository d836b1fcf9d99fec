#include "common/file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

namespace lahar {
namespace {

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

// fsyncs the directory holding `path`, making a rename into it durable.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("cannot open directory", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("cannot fsync directory", dir);
  return Status::OK();
}

}  // namespace

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  // Unique per process and call, so concurrent writers never share a temp.
  static std::atomic<uint64_t> seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(seq.fetch_add(1));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) return ErrnoStatus("cannot create", tmp);
  Status st;
  for (size_t done = 0; done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      st = ErrnoStatus("cannot write", tmp);
      break;
    }
    done += static_cast<size_t>(n);
  }
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoStatus("cannot fsync", tmp);
  if (::close(fd) != 0 && st.ok()) st = ErrnoStatus("cannot close", tmp);
  if (st.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    st = ErrnoStatus("cannot rename onto", path);
  }
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  return SyncParentDir(path);
}

}  // namespace lahar
