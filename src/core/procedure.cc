#include "core/procedure.h"

#include "sql/lexer.h"
#include "sql/parser.h"

namespace sebdb {

namespace {

Status CountParameters(const std::string& sql, size_t* count) {
  std::vector<Token> tokens;
  Status s = Tokenize(sql, &tokens);
  if (!s.ok()) return s;
  *count = 0;
  for (const auto& token : tokens) {
    if (token.type == TokenType::kParameter) (*count)++;
  }
  return Status::OK();
}

}  // namespace

Status ProcedureRegistry::Register(const std::string& name,
                                   std::vector<std::string> statements) {
  if (statements.empty()) {
    return Status::InvalidArgument("procedure needs at least one statement");
  }
  for (const auto& sql : statements) {
    StatementPtr stmt;
    Status s = ParseStatement(sql, &stmt);
    if (!s.ok()) {
      return Status::InvalidArgument("procedure " + name +
                                     " statement invalid: " + s.ToString());
    }
  }
  MutexLock lock(&mu_);
  if (procedures_.contains(name)) {
    return Status::InvalidArgument("procedure exists: " + name);
  }
  procedures_[name] = std::move(statements);
  return Status::OK();
}

bool ProcedureRegistry::Has(const std::string& name) const {
  MutexLock lock(&mu_);
  return procedures_.contains(name);
}

std::vector<std::string> ProcedureRegistry::Names() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(procedures_.size());
  for (const auto& [name, statements] : procedures_) names.push_back(name);
  return names;
}

Status ProcedureRegistry::Invoke(SebdbNode* node, const std::string& name,
                                 const std::vector<Value>& params,
                                 std::vector<ResultSet>* results) const {
  std::vector<std::string> statements;
  {
    MutexLock lock(&mu_);
    auto it = procedures_.find(name);
    if (it == procedures_.end()) {
      return Status::NotFound("no procedure named " + name);
    }
    statements = it->second;
  }
  size_t offset = 0;
  for (const auto& sql : statements) {
    size_t count = 0;
    Status s = CountParameters(sql, &count);
    if (!s.ok()) return s;
    if (offset + count > params.size()) {
      return Status::InvalidArgument(
          "procedure " + name + " needs " + std::to_string(offset + count) +
          "+ parameters, got " + std::to_string(params.size()));
    }
    ExecOptions options;
    options.params.assign(params.begin() + offset,
                          params.begin() + offset + count);
    offset += count;

    ResultSet result;
    s = node->ExecuteSql(sql, options, &result);
    if (!s.ok()) {
      return Status::Aborted("procedure " + name + " failed at \"" + sql +
                             "\": " + s.ToString());
    }
    results->push_back(std::move(result));
  }
  return Status::OK();
}

}  // namespace sebdb
