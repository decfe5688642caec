#include "util/file.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/error.hpp"

namespace cps::util {

void write_text_atomic(const std::string& path, const std::string& contents,
                       const std::string& what) {
  const std::string temp_path = path + ".tmp." + std::to_string(::getpid());
  std::error_code error;
  {
    std::ofstream out(temp_path, std::ios::trunc | std::ios::binary);
    if (!out) throw Error(what + ": cannot open '" + temp_path + "' for writing");
    out << contents;
    out.flush();
    if (!out) {
      std::filesystem::remove(temp_path, error);
      throw Error(what + ": short write to '" + temp_path + "'");
    }
  }
  std::filesystem::rename(temp_path, path, error);
  if (error) {
    const std::string reason = error.message();
    std::filesystem::remove(temp_path, error);
    throw Error(what + ": cannot publish '" + path + "': " + reason);
  }
}

}  // namespace cps::util
