#include "runner/bench_report.hh"

#include <map>
#include <sstream>

#include "support/json.hh"
#include "support/str.hh"
#include "support/table.hh"

namespace csched {

std::string
BenchCell::key() const
{
    return workload + "/" + machine +
           (algorithm.empty() ? "" : "/" + algorithm) +
           (kernel.empty() ? "" : "/" + kernel);
}

std::string
benchReportToJson(const BenchReport &report)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        w.key("schema").value(kBenchReportSchema);
        w.key("kind").value(report.kind);
        w.key("meta").beginObject();
        w.key("commit").value(report.meta.commit);
        w.key("buildType").value(report.meta.buildType);
        w.key("compiler").value(report.meta.compiler);
        w.key("flags").value(report.meta.flags);
        w.key("host").value(report.meta.host);
        w.key("repeats").value(report.meta.repeats);
        w.endObject();
        w.key("cells").beginArray();
        for (const auto &cell : report.cells) {
            w.beginObject();
            w.key("workload").value(cell.workload);
            w.key("machine").value(cell.machine);
            if (!cell.kernel.empty())
                w.key("kernel").value(cell.kernel);
            if (!cell.algorithm.empty())
                w.key("algorithm").value(cell.algorithm);
            w.key("medianSeconds").value(cell.medianSeconds);
            if (cell.minSeconds >= 0.0)
                w.key("minSeconds").value(cell.minSeconds);
            w.key("reps").value(cell.reps);
            if (cell.instructions > 0)
                w.key("instructions").value(cell.instructions);
            if (cell.makespan > 0)
                w.key("makespan").value(cell.makespan);
            if (cell.preRewriteSeconds >= 0.0)
                w.key("preRewriteSeconds")
                    .value(cell.preRewriteSeconds);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    out << "\n";
    return out.str();
}

namespace {

/** Read one cell; medianSeconds first, the statistic a cell exists for. */
Status
parseCell(const JsonValue &value, BenchCell *cell)
{
    return JsonFields(value, "bench cell")
        .get("medianSeconds", &cell->medianSeconds)
        .get("workload", &cell->workload)
        .get("machine", &cell->machine)
        .optional("kernel", &cell->kernel)
        .optional("algorithm", &cell->algorithm)
        .optional("minSeconds", &cell->minSeconds)
        .optional("reps", &cell->reps)
        .optional("instructions", &cell->instructions)
        .optional("makespan", &cell->makespan)
        .optional("preRewriteSeconds", &cell->preRewriteSeconds)
        .status();
}

} // namespace

std::optional<BenchReport>
parseBenchReport(const std::string &text, std::string *error)
{
    const auto doc = parseJson(text, error);
    if (!doc.has_value())
        return std::nullopt;
    BenchReport report;
    const JsonValue *meta = nullptr;
    const std::vector<JsonValue> *cells = nullptr;
    Status status = JsonFields(*doc, "bench report")
                        .expect("schema", kBenchReportSchema)
                        .optional("kind", &report.kind)
                        .optional("meta", &meta)
                        .get("cells", &cells)
                        .status();
    if (status.ok() && meta != nullptr)
        status = JsonFields(*meta, "bench report meta")
                     .optional("commit", &report.meta.commit)
                     .optional("buildType", &report.meta.buildType)
                     .optional("compiler", &report.meta.compiler)
                     .optional("flags", &report.meta.flags)
                     .optional("host", &report.meta.host)
                     .optional("repeats", &report.meta.repeats)
                     .status();
    for (size_t k = 0; status.ok() && k < cells->size(); ++k) {
        report.cells.emplace_back();
        status = parseCell((*cells)[k], &report.cells.back());
    }
    if (status.ok())
        return report;
    if (error != nullptr)
        *error = status.message();
    return std::nullopt;
}

bool
compareBenchReports(const BenchReport &baseline,
                    const BenchReport &current,
                    const BenchCompareOptions &options, std::ostream &out)
{
    std::map<std::string, const BenchCell *> base_by_key;
    for (const auto &cell : baseline.cells)
        base_by_key[cell.key()] = &cell;

    TablePrinter table({"cell", "baseline-ms", "current-ms", "delta",
                        "verdict"});
    bool ok = true;
    std::map<std::string, bool> joined;
    for (const auto &cell : current.cells) {
        const auto it = base_by_key.find(cell.key());
        if (it == base_by_key.end()) {
            table.addRow({cell.key(), "-",
                          formatDouble(cell.medianSeconds * 1e3, 3),
                          "-", "new"});
            continue;
        }
        joined[cell.key()] = true;
        const BenchCell &base = *it->second;
        // Gate on best-of-N when both sides carry it: the minimum is
        // far less sensitive to ambient machine load than the median,
        // so the gate flags engine regressions, not noisy neighbours.
        const bool use_min =
            base.minSeconds >= 0.0 && cell.minSeconds >= 0.0;
        const double base_s =
            use_min ? base.minSeconds : base.medianSeconds;
        const double cur_s =
            use_min ? cell.minSeconds : cell.medianSeconds;
        const double delta =
            base_s > 0.0 ? (cur_s - base_s) / base_s : 0.0;
        std::string verdict = "ok";
        if (base_s < options.minBaselineSeconds) {
            verdict = "noise";
        } else if (delta > options.slowdownThreshold) {
            verdict = "REGRESSED";
            ok = false;
        } else if (delta < -options.slowdownThreshold) {
            verdict = "faster";
        }
        table.addRow({cell.key(), formatDouble(base_s * 1e3, 3),
                      formatDouble(cur_s * 1e3, 3),
                      formatDouble(delta * 100.0, 1) + "%", verdict});
    }
    for (const auto &cell : baseline.cells)
        if (joined.find(cell.key()) == joined.end())
            table.addRow({cell.key(),
                          formatDouble(cell.medianSeconds * 1e3, 3),
                          "-", "-", "missing"});
    table.print(out);
    return ok;
}

} // namespace csched
