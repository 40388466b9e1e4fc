// Text rendering helpers for the catalog's group renderers: aligned tables,
// CSV series and coarse ASCII charts, so `gridsim campaign --render` reads
// like the corresponding table/figure of the paper.
#pragma once

#include <string>
#include <vector>

namespace gridsim::harness {

/// `# title` followed by an aligned table, as a string. Rendering to a
/// string lets scenario workloads running on campaign worker threads
/// produce their reports without interleaving stdout.
std::string render_table(const std::string& title,
                         const std::vector<std::string>& headers,
                         const std::vector<std::vector<std::string>>& rows);

/// A CSV block (one header line + data lines) for plotting, as a string.
std::string render_csv(const std::string& title,
                       const std::vector<std::string>& headers,
                       const std::vector<std::vector<std::string>>& rows);

/// Log-x ASCII line chart: one row per x value, one column block per
/// series, bar length proportional to value / y_max. As a string.
std::string render_ascii_chart(const std::string& title,
                               const std::vector<std::string>& series_names,
                               const std::vector<std::string>& x_labels,
                               const std::vector<std::vector<double>>& values,
                               double y_max, const std::string& unit);

std::string format_bytes(double bytes);
std::string format_double(double v, int precision = 2);

}  // namespace gridsim::harness
