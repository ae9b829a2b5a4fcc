#include "nn/module.h"

#include "common/check.h"

namespace ppn::nn {

std::vector<ag::Var> Module::Parameters() const {
  std::vector<ag::Var> params;
  for (const auto& [name, var] : NamedParameters()) params.push_back(var);
  return params;
}

std::vector<std::pair<std::string, ag::Var>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, ag::Var>> named;
  CollectNamed("", &named);
  return named;
}

void Module::CollectNamed(
    const std::string& prefix,
    std::vector<std::pair<std::string, ag::Var>>* out) const {
  for (const auto& [name, var] : parameters_) {
    out->emplace_back(prefix + name, var);
  }
  for (const auto& [name, submodule] : submodules_) {
    submodule->CollectNamed(prefix + name + "/", out);
  }
}

void Module::ZeroGrad() {
  for (const ag::Var& p : Parameters()) p->ZeroGrad();
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (auto& [name, submodule] : submodules_) {
    submodule->SetTraining(training);
  }
}

int64_t Module::ParameterCount() const {
  int64_t count = 0;
  for (const ag::Var& p : Parameters()) count += p->numel();
  return count;
}

void Module::SaveState(ckpt::BinWriter* writer) const {
  PPN_CHECK(writer != nullptr);
  const auto named = NamedParameters();
  writer->WriteU64(named.size());
  for (const auto& [name, var] : named) {
    writer->WriteString(name);
    writer->WriteI64(var->numel());
    writer->WriteF32Array(var->value().Data(), var->numel());
  }
}

bool Module::LoadState(ckpt::BinReader* reader, std::string* error) {
  PPN_CHECK(reader != nullptr);
  PPN_CHECK(error != nullptr);
  const auto named = NamedParameters();
  uint64_t count = 0;
  if (!reader->ReadU64(&count)) {
    *error = "module state: short read on parameter count";
    return false;
  }
  if (count != named.size()) {
    *error = "module state: expected " + std::to_string(named.size()) +
             " parameters, found " + std::to_string(count);
    return false;
  }
  for (const auto& [name, var] : named) {
    std::string stored_name;
    int64_t numel = 0;
    if (!reader->ReadString(&stored_name) || !reader->ReadI64(&numel)) {
      *error = "module state: short read at parameter '" + name + "'";
      return false;
    }
    if (stored_name != name) {
      *error = "module state: expected parameter '" + name + "', found '" +
               stored_name + "'";
      return false;
    }
    if (numel != var->numel()) {
      *error = "module state: parameter '" + name + "' has " +
               std::to_string(numel) + " values, module expects " +
               std::to_string(var->numel());
      return false;
    }
    if (!reader->ReadF32Array(var->mutable_value()->MutableData(), numel)) {
      *error = "module state: short read in payload of '" + name + "'";
      return false;
    }
  }
  return true;
}

void Module::CopyParametersFrom(const Module& source) {
  const auto mine = Parameters();
  const auto theirs = source.Parameters();
  PPN_CHECK_EQ(mine.size(), theirs.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    PPN_CHECK_EQ(mine[i]->numel(), theirs[i]->numel());
    float* dst = mine[i]->mutable_value()->MutableData();
    const float* src = theirs[i]->value().Data();
    for (int64_t j = 0; j < mine[i]->numel(); ++j) dst[j] = src[j];
  }
}

void Module::PolyakUpdateFrom(const Module& source, float tau) {
  const auto mine = Parameters();
  const auto theirs = source.Parameters();
  PPN_CHECK_EQ(mine.size(), theirs.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    PPN_CHECK_EQ(mine[i]->numel(), theirs[i]->numel());
    float* dst = mine[i]->mutable_value()->MutableData();
    const float* src = theirs[i]->value().Data();
    for (int64_t j = 0; j < mine[i]->numel(); ++j) {
      dst[j] = (1.0f - tau) * dst[j] + tau * src[j];
    }
  }
}

ag::Var Module::RegisterParameter(const std::string& name, Tensor init) {
  ag::Var param = ag::Parameter(std::move(init));
  parameters_.emplace_back(name, param);
  return param;
}

void Module::RegisterSubmodule(const std::string& name, Module* submodule) {
  PPN_CHECK(submodule != nullptr);
  submodules_.emplace_back(name, submodule);
}

}  // namespace ppn::nn
