#include "net/mapped_file.h"

#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define ZPM_HAVE_MMAP 1
#endif

namespace zpm::net {

MappedFile::~MappedFile() { reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_), size_(other.size_), valid_(other.valid_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.valid_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, std::size_t{0});
    valid_ = std::exchange(other.valid_, false);
  }
  return *this;
}

void MappedFile::reset() {
#ifdef ZPM_HAVE_MMAP
  if (valid_ && data_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
#endif
  data_ = nullptr;
  size_ = 0;
  valid_ = false;
}

MappedFile MappedFile::open(const std::string& path) {
  MappedFile mf;
#ifdef ZPM_HAVE_MMAP
  // O_NONBLOCK: opening a FIFO for reading would otherwise block until
  // a writer arrives, and closing it again (it cannot be mapped) would
  // leave that writer facing a reader-less pipe before the streaming
  // fallback reopens it. Regular files ignore the flag.
  int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  if (fd < 0) return mf;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return mf;
  }
  if (st.st_size == 0) {
    // Zero-byte files cannot be mmap'd but are a valid (empty) mapping.
    ::close(fd);
    mf.valid_ = true;
    return mf;
  }
  int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
  // Prefault the page tables in one kernel sweep instead of taking a
  // demand fault every few records during the parse. The whole file is
  // read anyway, so this moves cost, it doesn't add any.
  flags |= MAP_POPULATE;
#endif
  void* addr = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                      flags, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (addr == MAP_FAILED) return mf;
#ifdef MADV_SEQUENTIAL
  // Trace analysis is one sequential sweep: tell the kernel to read
  // ahead aggressively and drop pages behind us.
  ::madvise(addr, static_cast<std::size_t>(st.st_size), MADV_SEQUENTIAL);
#endif
  mf.data_ = static_cast<const std::uint8_t*>(addr);
  mf.size_ = static_cast<std::size_t>(st.st_size);
  mf.valid_ = true;
#else
  (void)path;
#endif
  return mf;
}

}  // namespace zpm::net
