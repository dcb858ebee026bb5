#include "shard/journal.hpp"

#include <cstdio>
#include <iterator>
#include <sstream>

#include "flow/session.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"

namespace minpower::shard {

std::string suite_fingerprint(const std::vector<const Network*>& circuits,
                              const FlowOptions& flow) {
  StreamHash h;
  h.u64(circuits.size());
  for (const Network* net : circuits) {
    const Hash128 s = structural_hash(*net);
    const Hash128 o = option_fingerprint(flow, *net);
    h.u64(s.a ^ o.a);
    h.u64(s.b ^ o.b);
  }
  const Hash128 d = h.digest();
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(d.a),
                static_cast<unsigned long long>(d.b));
  return buf;
}

bool load_journal(const std::string& path, Journal* out, std::string* error) {
  using Kind = JsonValue::Kind;
  *out = Journal{};
  std::ifstream in(path);
  if (!in) return set_error(error, "cannot open journal " + path);
  std::string line;
  std::size_t lineno = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++lineno;
    const bool torn_tail = in.eof();  // no trailing '\n': write was cut short
    if (line.empty()) continue;
    const std::string where = path + ":" + std::to_string(lineno) + ": ";
    std::string parse_error;
    std::optional<JsonValue> v = parse_json(line, &parse_error);
    if (!v) {
      if (torn_tail) break;  // torn trailing line: drop it
      return set_error(error, where + parse_error);
    }
    if (!saw_header) {
      const JsonValue* schema = v->find("schema", Kind::kString);
      if (schema == nullptr || schema->string != "minpower.shard.v1")
        return set_error(error, path + ": not a minpower.shard.v1 journal");
      const JsonValue* lib = v->find("library", Kind::kString);
      const JsonValue* hash = v->find("suite_hash", Kind::kString);
      const JsonValue* circuits = v->find("circuits", Kind::kArray);
      if (lib == nullptr || hash == nullptr || circuits == nullptr)
        return set_error(error, path + ": malformed journal header");
      out->library = lib->string;
      out->suite_hash = hash->string;
      for (const JsonValue& c : circuits->items) {
        if (c.kind != Kind::kString)
          return set_error(error,
                           path + ": non-string circuit name in header");
        out->circuits.push_back(c.string);
      }
      saw_header = true;
      continue;
    }
    const JsonValue* ci = v->find("ci", Kind::kNumber);
    const JsonValue* mi = v->find("mi", Kind::kNumber);
    const JsonValue* cell = v->find("cell", Kind::kObject);
    if (ci == nullptr || mi == nullptr || cell == nullptr)
      return set_error(error, where + "malformed cell");
    JournalCell jc;
    const std::optional<std::size_t> cell_ci =
        json_integer<std::size_t>(ci->number);
    const std::optional<std::size_t> cell_mi =
        json_integer<std::size_t>(mi->number);
    if (!cell_ci || !cell_mi || *cell_ci >= out->circuits.size() ||
        *cell_mi >= std::size(kMethods))
      return set_error(error, where + "cell index out of range");
    jc.ci = *cell_ci;
    jc.mi = *cell_mi;
    std::string cell_error;
    if (!parse_flow_result_json(*cell, &jc.result, &cell_error))
      return set_error(error, where + cell_error);
    jc.result.circuit = out->circuits[jc.ci];
    out->cells.push_back(std::move(jc));
  }
  if (!saw_header)
    return set_error(error, path + ": empty journal (no header)");
  return true;
}

bool JournalWriter::create(const std::string& path, const std::string& library,
                           const std::string& suite_hash,
                           const std::vector<std::string>& circuits,
                           std::string* error) {
  out_.open(path, std::ios::out | std::ios::trunc);
  if (!out_) return set_error(error, "cannot create journal " + path);
  std::ostringstream line;
  {
    JsonWriter w(line, /*pretty=*/false);
    w.begin_object();
    w.field("schema", "minpower.shard.v1");
    w.field("library", library);
    w.field("suite_hash", suite_hash);
    w.key("circuits");
    w.begin_array();
    for (const std::string& c : circuits) w.value(c);
    w.end_array();
    w.end_object();
  }
  out_ << line.str() << '\n' << std::flush;
  return out_.good() ||
         set_error(error, "cannot write journal header to " + path);
}

bool JournalWriter::open_append(const std::string& path, std::string* error) {
  out_.open(path, std::ios::out | std::ios::app);
  if (!out_) return set_error(error, "cannot append to journal " + path);
  return true;
}

void JournalWriter::append_cell(std::size_t ci, std::size_t mi,
                                const FlowResult& r) {
  if (!out_.is_open()) return;
  std::ostringstream line;
  {
    JsonWriter w(line, /*pretty=*/false);
    w.begin_object();
    w.field("ci", ci);
    w.field("mi", mi);
    w.key("cell");
    write_flow_result_json(w, r);
    w.end_object();
  }
  out_ << line.str() << '\n' << std::flush;
}

}  // namespace minpower::shard
