#include "online/policy.hh"

#include <algorithm>

#include "support/str.hh"

namespace csched {

namespace {

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

bool
parsePolicyOptions(const std::vector<std::string> &fields,
                   OnlinePolicySpec &spec, std::string *error)
{
    for (size_t i = 1; i < fields.size(); ++i) {
        const std::string &field = fields[i];
        const size_t eq = field.find('=');
        if (eq == std::string::npos || eq == 0)
            return fail(error, "online policy option must be key=value, "
                               "got '" + field + "'");
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        if (key == "budget-ms") {
            const auto ms = parseNonNegativeIntFlag(value);
            if (!ms.has_value() || *ms > 3600000)
                return fail(error, "bad budget-ms '" + value + "'");
            spec.decisionBudgetMs = *ms;
        } else if (key == "preempt-factor") {
            const auto factor = parseFiniteDoubleFlag(value);
            if (!factor.has_value() || *factor < 1.0)
                return fail(error,
                            "preempt-factor must be >= 1, got '" + value +
                                "'");
            spec.preemptFactor = *factor;
        } else if (key == "degrade-at") {
            const auto at = parseNonNegativeIntFlag(value);
            if (!at.has_value() || *at > 1000000000)
                return fail(error, "bad degrade-at '" + value + "'");
            spec.degradeAt = *at;
        } else if (key == "degrade-tiles") {
            spec.degradeTiles.clear();
            for (const std::string &part : split(value, '+')) {
                const auto id = parseNonNegativeIntFlag(trim(part));
                if (!id.has_value() || *id > 100000)
                    return fail(error, "bad degrade-tiles entry '" +
                                           part + "'");
                spec.degradeTiles.push_back(*id);
            }
            if (spec.degradeTiles.empty())
                return fail(error,
                            "degrade-tiles needs at least one tile");
        } else {
            return fail(error, "unknown online policy option '" + key + "'");
        }
    }
    return true;
}

} // namespace

const std::vector<std::string> &
knownOnlinePolicyNames()
{
    static const std::vector<std::string> names{
        "online-convergent", "online-sp", "online-list", "online-uas",
        "online-pcc"};
    return names;
}

bool
isOnlinePolicyName(const std::string &name)
{
    const std::string head = trim(name.substr(0, name.find(':')));
    const auto &names = knownOnlinePolicyNames();
    return std::find(names.begin(), names.end(), head) != names.end();
}

std::optional<OnlinePolicySpec>
parseOnlinePolicy(const std::string &text, std::string *error)
{
    const std::vector<std::string> fields = split(text, ':');
    OnlinePolicySpec spec;
    spec.name = trim(fields[0]);
    spec.text = text;
    if (spec.name == "online-convergent") {
        spec.order = OnlineOrder::Wspt;
        spec.underlying = "convergent";
        spec.planAhead = true;
    } else if (spec.name == "online-sp") {
        spec.order = OnlineOrder::Wspt;
        spec.underlying = "convergent";
    } else if (spec.name == "online-list") {
        spec.order = OnlineOrder::LongestCpl;
        spec.underlying = "convergent";
    } else if (spec.name == "online-uas") {
        spec.order = OnlineOrder::Fifo;
        spec.underlying = "uas";
    } else if (spec.name == "online-pcc") {
        spec.order = OnlineOrder::Fifo;
        spec.underlying = "pcc";
    } else {
        fail(error, "unknown online policy '" + spec.name + "' (expected " +
                        join(knownOnlinePolicyNames(), "|") + ")");
        return std::nullopt;
    }
    if (!parsePolicyOptions(fields, spec, error))
        return std::nullopt;
    if ((spec.degradeAt >= 0) != !spec.degradeTiles.empty()) {
        fail(error, "degrade-at and degrade-tiles must be given "
                    "together");
        return std::nullopt;
    }
    return spec;
}

} // namespace csched
