// Fixture: WindowProblem::build and evaluateCost are hot by path and
// name; serial loops that write storage sized before the call, or that
// sum into a scalar, stay quiet.
#include <vector>

namespace archytas::slam {

double
WindowProblem::evaluateCost(const std::vector<double> &rows) const
{
    double cost = 0.0;
    for (const double r : rows)
        cost += 0.5 * r * r;
    return cost;
}

void
WindowProblem::build(std::vector<double> &out,
                     const std::vector<double> &rows) const
{
    for (std::size_t i = 0; i < rows.size() && i < out.size(); ++i)
        out[i] += rows[i];
}

} // namespace archytas::slam
