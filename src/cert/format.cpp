#include "cert/format.hpp"

#include <cmath>
#include <cstdint>

#include "util/json.hpp"

namespace rfn::cert {

const char* cert_kind_name(CertKind k) {
  return k == CertKind::HoldsInvariant ? "holds-invariant" : "fails-trace";
}

namespace {

std::string hash_hex(uint64_t h) {
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i)
    out[15 - i] = "0123456789abcdef"[(h >> (4 * i)) & 0xF];
  return out;
}

json::Value cube_json(const Cube& c) {
  json::Value arr = json::Value::array();
  for (const Literal& lit : c) {
    json::Value pair = json::Value::array();
    pair.push(json::Value(uint64_t{lit.signal}));
    pair.push(json::Value(lit.value ? 1 : 0));
    arr.push(std::move(pair));
  }
  return arr;
}

}  // namespace

std::string to_json(const Certificate& c) {
  json::Value doc = json::Value::object();
  doc.set("format", "rfn-cert-v1");
  doc.set("kind", cert_kind_name(c.kind));
  json::Value design = json::Value::object();
  design.set("hash", hash_hex(c.design_hash));
  design.set("regs", uint64_t{c.design_regs});
  design.set("inputs", uint64_t{c.design_inputs});
  design.set("gates", uint64_t{c.design_gates});
  doc.set("design", std::move(design));
  json::Value prop = json::Value::object();
  prop.set("name", c.property_name);
  prop.set("bad", uint64_t{c.bad});
  doc.set("property", std::move(prop));
  if (c.kind == CertKind::HoldsInvariant) {
    json::Value regs = json::Value::array();
    for (GateId r : c.registers) regs.push(json::Value(uint64_t{r}));
    doc.set("abstraction", json::Value::object().set("registers", std::move(regs)));
    json::Value clauses = json::Value::array();
    for (const std::vector<int32_t>& clause : c.clauses) {
      json::Value cl = json::Value::array();
      for (int32_t lit : clause) cl.push(json::Value(int64_t{lit}));
      clauses.push(std::move(cl));
    }
    doc.set("invariant", json::Value::object().set("clauses", std::move(clauses)));
  } else {
    json::Value steps = json::Value::array();
    for (const TraceStep& step : c.trace.steps) {
      json::Value s = json::Value::object();
      s.set("state", cube_json(step.state));
      s.set("inputs", cube_json(step.inputs));
      steps.push(std::move(s));
    }
    doc.set("trace", json::Value::object().set("steps", std::move(steps)));
  }
  return doc.dump(2) + "\n";
}

namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

bool parse_uint(const json::Value* v, uint64_t* out) {
  if (v == nullptr || !v->is_number()) return false;
  const double d = v->as_double();
  if (d < 0 || d != std::floor(d) || d >= 0x1p64) return false;  // 2^64 overflows
  *out = static_cast<uint64_t>(d);
  return true;
}

/// A gate id: below the reserved kNullGate, so the narrowing cannot wrap.
bool parse_id(const json::Value* v, GateId* out) {
  uint64_t u = 0;
  if (!parse_uint(v, &u) || u >= kNullGate) return false;
  *out = static_cast<GateId>(u);
  return true;
}

bool parse_cube(const json::Value* v, Cube* out, std::string* error,
                const char* what) {
  if (v == nullptr || !v->is_array())
    return fail(error, std::string("trace step missing ") + what + " array");
  for (const json::Value& pair : v->items()) {
    if (!pair.is_array() || pair.items().size() != 2)
      return fail(error, std::string(what) + " literal is not an [id, value] pair");
    GateId id = kNullGate;
    if (!parse_id(&pair.items()[0], &id))
      return fail(error, std::string(what) + " literal id is not a 32-bit gate id");
    uint64_t value = 0;
    if (!parse_uint(&pair.items()[1], &value) || value > 1)
      return fail(error, std::string(what) + " literal has a non-binary value");
    out->push_back({id, value == 1});
  }
  return true;
}

}  // namespace

bool from_json(std::string_view text, Certificate* out, std::string* error) {
  std::string parse_error;
  const json::Value doc = json::parse(text, &parse_error);
  if (doc.is_null()) return fail(error, "not valid JSON: " + parse_error);
  if (!doc.is_object()) return fail(error, "top-level value is not an object");
  const json::Value* format = doc.find("format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != "rfn-cert-v1")
    return fail(error, "missing or unsupported \"format\" (want rfn-cert-v1)");
  const json::Value* kind = doc.find("kind");
  if (kind == nullptr || !kind->is_string())
    return fail(error, "missing \"kind\"");
  Certificate c;
  if (kind->as_string() == "holds-invariant") {
    c.kind = CertKind::HoldsInvariant;
  } else if (kind->as_string() == "fails-trace") {
    c.kind = CertKind::FailsTrace;
  } else {
    return fail(error, "unknown kind \"" + kind->as_string() + "\"");
  }

  const json::Value* hash = doc.find_path("design.hash");
  if (hash == nullptr || !hash->is_string() || hash->as_string().size() != 16)
    return fail(error, "design.hash must be 16 hex digits");
  c.design_hash = 0;
  for (char ch : hash->as_string()) {
    uint32_t nibble = 0;
    if (ch >= '0' && ch <= '9') {
      nibble = static_cast<uint32_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      nibble = static_cast<uint32_t>(ch - 'a' + 10);
    } else {
      return fail(error, "design.hash must be 16 hex digits");
    }
    c.design_hash = (c.design_hash << 4) | nibble;
  }
  uint64_t u = 0;
  if (parse_uint(doc.find_path("design.regs"), &u)) c.design_regs = u;
  if (parse_uint(doc.find_path("design.inputs"), &u)) c.design_inputs = u;
  if (parse_uint(doc.find_path("design.gates"), &u)) c.design_gates = u;

  const json::Value* name = doc.find_path("property.name");
  if (name == nullptr || !name->is_string())
    return fail(error, "missing property.name");
  c.property_name = name->as_string();
  if (!parse_id(doc.find_path("property.bad"), &c.bad))
    return fail(error, "property.bad is missing or not a 32-bit gate id");

  if (c.kind == CertKind::HoldsInvariant) {
    const json::Value* regs = doc.find_path("abstraction.registers");
    if (regs == nullptr || !regs->is_array())
      return fail(error, "missing abstraction.registers");
    for (const json::Value& r : regs->items()) {
      GateId id = kNullGate;
      if (!parse_id(&r, &id))
        return fail(error, "abstraction.registers entry is not a 32-bit gate id");
      if (!c.registers.empty() && c.registers.back() >= id)
        return fail(error, "abstraction.registers must be sorted and unique");
      c.registers.push_back(id);
    }
    const json::Value* clauses = doc.find_path("invariant.clauses");
    if (clauses == nullptr || !clauses->is_array())
      return fail(error, "missing invariant.clauses");
    for (const json::Value& cl : clauses->items()) {
      if (!cl.is_array() || cl.items().empty())
        return fail(error, "invariant clause is empty or not an array");
      std::vector<int32_t> clause;
      for (const json::Value& lit : cl.items()) {
        if (!lit.is_number()) return fail(error, "clause literal is not a number");
        const double d = lit.as_double();
        if (d != std::floor(d)) return fail(error, "clause literal is not an integer");
        const double mag = std::fabs(d);  // range-checked before the cast
        if (mag == 0 || mag > c.registers.size() || mag > INT32_MAX)
          return fail(error, "clause literal indexes outside the register list");
        clause.push_back(static_cast<int32_t>(d));
      }
      c.clauses.push_back(std::move(clause));
    }
  } else {
    const json::Value* steps = doc.find_path("trace.steps");
    if (steps == nullptr || !steps->is_array() || steps->items().empty())
      return fail(error, "fails-trace certificate needs a non-empty trace.steps");
    for (const json::Value& step : steps->items()) {
      TraceStep ts;
      if (!parse_cube(step.find("state"), &ts.state, error, "state") ||
          !parse_cube(step.find("inputs"), &ts.inputs, error, "inputs"))
        return false;
      c.trace.steps.push_back(std::move(ts));
    }
  }
  *out = std::move(c);
  return true;
}

}  // namespace rfn::cert
