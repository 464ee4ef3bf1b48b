// Checked whole-file output.
//
// Every file the tools write (CSV/JSON exports, traces, metrics, logs) goes
// through `writeFile`, which closes the stream before checking it: bytes
// that only fail when the buffer is flushed (a full disk, /dev/full) turn
// into an error instead of a silent "wrote ..." line.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>

namespace symfail::obs {

/// Writes `content` to `path`, replacing any existing file, and returns
/// the path as a string.  Throws std::runtime_error when the file cannot
/// be opened or any byte fails to reach it.
std::string writeFile(const std::filesystem::path& path, std::string_view content);

}  // namespace symfail::obs
