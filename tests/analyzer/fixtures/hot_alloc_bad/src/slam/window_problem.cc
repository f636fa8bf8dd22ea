// Fixture: WindowProblem::build and evaluateCost are hot by path and
// name, so an allocation in one of their serial loops fires, while the
// same growth in a helper outside them stays quiet.
#include <vector>

namespace archytas::slam {

void
recordTerms(std::vector<double> &terms, const std::vector<double> &rows)
{
    for (const double r : rows)
        terms.push_back(r);
}

double
WindowProblem::evaluateCost(const std::vector<double> &rows) const
{
    std::vector<double> terms;
    double cost = 0.0;
    for (const double r : rows) {
        terms.push_back(0.5 * r * r);
        cost += terms.back();
    }
    return cost;
}

void
WindowProblem::build(std::vector<double> &out,
                     const std::vector<double> &rows) const
{
    for (std::size_t i = 0; i < rows.size(); ++i)
        out.resize(i + 1);
}

} // namespace archytas::slam
