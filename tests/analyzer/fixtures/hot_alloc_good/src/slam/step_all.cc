// Fixture: reference bindings inside a pool lambda allocate nothing, so
// they stay quiet; the lambda only writes slots sized before the region.
#include <vector>

namespace archytas::slam {

void
stepAll(std::vector<std::vector<double>> &steps,
        const std::vector<std::vector<double>> &inputs)
{
    runTasks(steps.size(), [&](std::size_t i) {
        const std::vector<std::vector<double>> &table = inputs;
        const std::vector<double> &in = table[i];
        std::vector<double> &out = steps[i];
        for (std::size_t f = 0; f < out.size() && f < in.size(); ++f)
            out[f] = in[f];
    });
}

} // namespace archytas::slam
