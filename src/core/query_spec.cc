#include "core/query_spec.h"

#include <utility>

namespace csj {

const char* QueryAlgoName(QueryAlgo algo) {
  switch (algo) {
    case QueryAlgo::kAuto:
      return "auto";
    case QueryAlgo::kSSJ:
      return "ssj";
    case QueryAlgo::kNCSJ:
      return "ncsj";
    case QueryAlgo::kCSJ:
      return "csj";
    case QueryAlgo::kEgo:
      return "ego";
    case QueryAlgo::kCEgo:
      return "cego";
  }
  return "?";
}

bool ParseQueryAlgo(const std::string& name, QueryAlgo* algo) {
  if (name == "auto") {
    *algo = QueryAlgo::kAuto;
  } else if (name == "ssj") {
    *algo = QueryAlgo::kSSJ;
  } else if (name == "ncsj") {
    *algo = QueryAlgo::kNCSJ;
  } else if (name == "csj") {
    *algo = QueryAlgo::kCSJ;
  } else if (name == "ego") {
    *algo = QueryAlgo::kEgo;
  } else if (name == "cego") {
    *algo = QueryAlgo::kCEgo;
  } else {
    return false;
  }
  return true;
}

Status QuerySpec::Validate() const {
  if (eps <= 0.0) return Status::InvalidArgument("eps must be positive");
  if (window < 1) return Status::InvalidArgument("g must be at least 1");
  if (threads < 0) {
    return Status::InvalidArgument("threads must be non-negative");
  }
  if (!dataset_b.empty()) {
    if (IsEgoAlgo(algo)) {
      return Status::InvalidArgument(
          "dataset_b selects a dual tree join; not supported by ego/cego");
    }
    if (dataset.empty()) {
      return Status::InvalidArgument("dataset_b requires dataset");
    }
  }
  return Status::OK();
}

json::Value QuerySpec::ToJsonValue() const {
  json::Value v = json::Object{};
  if (!dataset.empty()) v["dataset"] = dataset;
  if (!dataset_b.empty()) v["dataset_b"] = dataset_b;
  v["algo"] = QueryAlgoName(algo);
  v["eps"] = eps;
  v["g"] = static_cast<int64_t>(window);
  v["threads"] = static_cast<int64_t>(threads);
  v["deadline_ms"] = deadline_ms;
  v["mem_budget"] = mem_budget;
  v["output"] = OutputFormatName(output);
  return v;
}

namespace {
Status FieldError(const std::string& field, const std::string& why) {
  return Status::InvalidArgument("request field '" + field + "': " + why);
}

/// Reads an integer field into `*out`. Fractions, and integers outside T's
/// range (negatives for the unsigned fields), are field errors: the request
/// line came from a client, so a bad value must never reach a CHECK.
template <typename T>
Status ReadInteger(const std::string& field, const json::Value& value,
                   T* out) {
  if (value.is_uint() && std::in_range<T>(value.AsUint())) {
    *out = static_cast<T>(value.AsUint());
  } else if (value.is_int() && std::in_range<T>(value.AsInt())) {
    *out = static_cast<T>(value.AsInt());
  } else {
    return FieldError(field, value.is_uint() || value.is_int()
                                 ? "integer out of range"
                                 : "expected an integer");
  }
  return Status::OK();
}
}  // namespace

Result<QuerySpec> QuerySpec::FromJson(const json::Value& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("QuerySpec must be a JSON object");
  }
  QuerySpec spec;
  for (const auto& [key, value] : doc.AsObject()) {
    if (key == "dataset") {
      if (!value.is_string()) return FieldError(key, "expected a string");
      spec.dataset = value.AsString();
    } else if (key == "dataset_b") {
      if (!value.is_string()) return FieldError(key, "expected a string");
      spec.dataset_b = value.AsString();
    } else if (key == "algo") {
      if (!value.is_string()) return FieldError(key, "expected a string");
      if (!ParseQueryAlgo(value.AsString(), &spec.algo)) {
        return FieldError(key, "must be auto, ssj, ncsj, csj, ego or cego");
      }
    } else if (key == "eps") {
      if (!value.is_number()) return FieldError(key, "expected a number");
      spec.eps = value.AsDouble();
    } else if (key == "g") {
      CSJ_RETURN_IF_ERROR(ReadInteger(key, value, &spec.window));
    } else if (key == "threads") {
      CSJ_RETURN_IF_ERROR(ReadInteger(key, value, &spec.threads));
    } else if (key == "deadline_ms") {
      CSJ_RETURN_IF_ERROR(ReadInteger(key, value, &spec.deadline_ms));
    } else if (key == "mem_budget") {
      CSJ_RETURN_IF_ERROR(ReadInteger(key, value, &spec.mem_budget));
    } else if (key == "output") {
      if (!value.is_string()) return FieldError(key, "expected a string");
      if (!ParseOutputFormat(value.AsString(), &spec.output)) {
        return FieldError(key, "must be text, binary or none");
      }
    } else {
      return Status::InvalidArgument("unknown request field '" + key + "'");
    }
  }
  return spec;
}

}  // namespace csj
