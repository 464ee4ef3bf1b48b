#include "obs/file.hpp"

#include <fstream>
#include <stdexcept>

namespace symfail::obs {

std::string writeFile(const std::filesystem::path& path, std::string_view content) {
    std::ofstream out{path, std::ios::binary};
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.close();
    if (!out) throw std::runtime_error("cannot write " + path.string());
    return path.string();
}

}  // namespace symfail::obs
