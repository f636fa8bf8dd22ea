// Fixture: container growth inside a lambda handed to the pool fires,
// and so does a temporary vector even when a reference binds it.
#include <vector>

namespace archytas::slam {

void
assemble(std::vector<double> &rows)
{
    std::vector<double> scratch;
    parallelFor(std::size_t{0}, rows.size(), [&](std::size_t i) {
        scratch.push_back(rows[i]);
        const std::vector<double> &copy = std::vector<double>(rows);
    });
}

} // namespace archytas::slam
