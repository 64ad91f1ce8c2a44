#include "cube/cell.h"

namespace scube {
namespace cube {

bool CellCoordinates::operator<(const CellCoordinates& other) const {
  size_t len = sa.size() + ca.size();
  size_t other_len = other.sa.size() + other.ca.size();
  if (len != other_len) return len < other_len;
  if (!(sa == other.sa)) return sa < other.sa;
  return ca < other.ca;
}

IndexTexts::IndexTexts(const indexes::IndexVector& values) {
  for (size_t k = 0; k < values.values.size(); ++k) {
    char* first = bytes_[k].data();
    sizes_[k] =
        static_cast<uint8_t>(WriteDouble6g(values.values[k], first) - first);
  }
}

}  // namespace cube
}  // namespace scube
