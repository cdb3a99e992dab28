#include "runner/driver.hh"

#include <iostream>

#include "runner/shutdown.hh"
#include "support/atomic_file.hh"
#include "support/str.hh"

namespace csched {

bool
parseDriverFlag(const std::vector<std::string> &args, size_t *k,
                GridSpec *grid, DriverFlags *flags, std::string *error)
{
    const std::string &arg = args[*k];
    error->clear();
    auto value = [&](std::string *out) {
        if (*k + 1 >= args.size())
            *error = arg + " needs a value";
        else
            *out = args[++*k];
        return error->empty();
    };
    auto count = [&](int *out) {
        std::string text;
        if (!value(&text))
            return;
        const auto parsed = parseNonNegativeIntFlag(text);
        if (parsed.has_value())
            *out = *parsed;
        else
            *error = arg + " expects a non-negative integer, got '" +
                     text + "'";
    };

    std::string text;
    if (arg == "--jobs") {
        count(&grid->jobs);
    } else if (arg == "--deadline-ms") {
        count(&grid->deadlineMs);
    } else if (arg == "--retries") {
        count(&grid->retries);
    } else if (arg == "--mem-limit-mb") {
        count(&grid->memLimitMb);
    } else if (arg == "--isolate") {
        grid->isolate = true;
    } else if (arg == "--journal") {
        value(&grid->journalPath);
    } else if (arg == "--resume") {
        grid->resume = true;
    } else if (arg == "--hosts") {
        if (value(&text)) {
            grid->hosts = split(text, ',');
            grid->dist = &flags->dist;
        }
    } else if (arg == "--dist-opts") {
        if (value(&text)) {
            const Status applied =
                DistOptions::applyOverrides(&flags->dist, text);
            if (!applied.ok())
                *error = "--dist-opts: " + applied.message();
        }
    } else if (arg == "--keep-going") {
        flags->keepGoing = true;
    } else if (arg == "--inject") {
        if (value(&text)) {
            std::string why;
            const auto plan = FaultPlan::parse(text, &why);
            if (plan.has_value()) {
                flags->faults = *plan;
                grid->faults = flags->faults.empty() ? nullptr
                                                     : &flags->faults;
            } else {
                *error = "--inject: " + why;
            }
        }
    } else if (arg == "--json") {
        value(&flags->jsonFile);
    } else {
        return false;
    }
    return true;
}

int
finishGridRun(const char *argv0, const GridReport &report,
              const DriverFlags &flags, const ReportOptions &options,
              bool announce)
{
    if (flags.jsonFile == "-") {
        writeGridReport(std::cout, report, options);
    } else if (!flags.jsonFile.empty()) {
        // Driver-level fault scope so --inject can target the report
        // write itself (the jobs ran in their own scopes).
        FaultScope report_faults(flags.faults.empty() ? nullptr
                                                      : &flags.faults,
                                 "report");
        ScopedFaultScope report_fault_guard(&report_faults);
        const Status written = writeFileAtomic(
            flags.jsonFile, gridReportToJson(report, options));
        if (!written.ok()) {
            std::cerr << argv0 << ": " << written.toString() << "\n";
            return 1;
        }
        if (announce)
            std::cout << "wrote " << flags.jsonFile << "\n";
    }
    printFailureSummary(std::cerr, report);
    return gridExitCode(report, flags.keepGoing);
}

void
printFailureSummary(std::ostream &out, const GridReport &report)
{
    const GridSummary &summary = report.summary;
    if (summary.ok == summary.total && summary.retried == 0 &&
        !report.interrupted)
        return;

    for (const auto &job : report.results) {
        if (job.ok() && !job.retriedThenOk())
            continue;
        out << "  " << jobOutcomeName(job.outcome) << "  "
            << job.workload << "/" << job.machine << "/"
            << job.algorithm;
        if (job.attempts > 1)
            out << "  (" << job.attempts << " attempts)";
        if (!job.ok() && job.outcome != JobOutcome::Interrupted)
            out << "  [" << errorCodeName(job.error) << "] "
                << job.diagnostic;
        out << "\n";
    }
    out << summary.ok << "/" << summary.total << " jobs ok";
    if (summary.failed > 0)
        out << ", " << summary.failed << " failed";
    if (summary.timeout > 0)
        out << ", " << summary.timeout << " timed out";
    if (summary.interrupted > 0)
        out << ", " << summary.interrupted << " interrupted";
    if (summary.retried > 0)
        out << ", " << summary.retried << " recovered by retry";
    out << "\n";
    if (report.interrupted)
        out << "run interrupted; resume with --journal <path> "
               "--resume\n";
}

int
gridExitCode(const GridReport &report, bool keep_going)
{
    if (report.interrupted)
        return interruptExitCode(interruptSignal());
    return report.allOk() || keep_going ? 0 : 1;
}

} // namespace csched
