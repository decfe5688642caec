// Atomic publication of small text files.
#pragma once

#include <string>

namespace cps::util {

/// Write `contents` to `path` through a temp file in the same directory
/// (`path` + ".tmp." + the process id) and rename it into place.  A crash
/// or kill at any instant leaves either the old file or the new one,
/// never a torn one, which is what lets readers treat "file present" as
/// "file whole".  Throws cps::Error, prefixed with `what`, when the temp
/// file cannot be written or the rename fails; a failed call leaves no
/// temp file behind.
void write_text_atomic(const std::string& path, const std::string& contents,
                       const std::string& what);

}  // namespace cps::util
