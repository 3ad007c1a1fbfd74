#include "core/decl.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "core/bug.h"

namespace systest::detail {

namespace {

thread_local bool g_skip_decl_build = false;

/// Guards both decl maps. Taken once per machine/monitor construction (Find)
/// and once per type ever (GetOrCompile); never on the scheduling hot path.
std::mutex& RegistryMutex() {
  static std::mutex mutex;
  return mutex;
}

std::unordered_map<std::type_index, std::unique_ptr<MachineDecl>>&
MachineDecls() {
  static std::unordered_map<std::type_index, std::unique_ptr<MachineDecl>>
      decls;
  return decls;
}

std::unordered_map<std::type_index, std::unique_ptr<MonitorDecl>>&
MonitorDecls() {
  static std::unordered_map<std::type_index, std::unique_ptr<MonitorDecl>>
      decls;
  return decls;
}

/// Builds the flat event-id tables shared by machine and monitor compiles.
template <typename HandlerT>
void BuildHandlerTables(std::unordered_map<EventTypeId, HandlerT>&& handlers,
                        std::vector<HandlerT>& dense,
                        std::vector<std::int32_t>& index) {
  std::vector<EventTypeId> ids;
  ids.reserve(handlers.size());
  for (const auto& [id, handler] : handlers) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  if (!ids.empty()) {
    index.assign(ids.back() + 1, kNoEntry);
  }
  dense.reserve(ids.size());
  for (const EventTypeId id : ids) {
    index[id] = static_cast<std::int32_t>(dense.size());
    dense.push_back(std::move(handlers.at(id)));
  }
}

std::unique_ptr<MachineDecl> Compile(
    std::type_index type, std::map<std::string, StateDecl>&& states) {
  auto decl = std::make_unique<MachineDecl>();
  decl->type = type;
  decl->states.reserve(states.size());
  for (auto& [name, state] : states) {
    decl->by_name.emplace(name, static_cast<StateId>(decl->states.size()));
    CompiledState compiled;
    compiled.name = name;
    compiled.entry = std::move(state.entry);
    compiled.exit = std::move(state.exit);
    compiled.hot = state.hot;
    compiled.cold = state.cold;
    BuildHandlerTables(std::move(state.handlers), compiled.handlers,
                       compiled.dispatch);
    for (const EventTypeId id : state.defers) {
      compiled.defers.Insert(id);
    }
    for (const EventTypeId id : state.ignores) {
      compiled.ignores.Insert(id);
    }
    decl->states.push_back(std::move(compiled));
  }
  // Second pass: resolve OnGoto targets to StateIds now that every state has
  // one, overwriting any handler entry for the same event (a declared goto
  // has always shadowed a handler). Targets that name no declared state stay
  // kDanglingGoto and fail at fire time, exactly as the string lookup used
  // to.
  auto state_it = states.begin();
  for (CompiledState& compiled : decl->states) {
    StateDecl& builder = state_it->second;
    ++state_it;
    if (builder.gotos.empty()) {
      continue;
    }
    EventTypeId max_id = 0;
    for (const auto& [id, target] : builder.gotos) {
      max_id = std::max(max_id, id);
    }
    if (compiled.dispatch.size() <= max_id) {
      compiled.dispatch.resize(max_id + 1, kNoEntry);
    }
    for (auto& [id, target] : builder.gotos) {
      const auto target_it = decl->by_name.find(target);
      compiled.dispatch[id] = target_it == decl->by_name.end()
                                  ? kDanglingGoto
                                  : EncodeGoto(target_it->second);
      compiled.goto_names.emplace(id, std::move(target));
    }
  }
  return decl;
}

std::unique_ptr<MonitorDecl> CompileMonitor(
    std::type_index type, std::map<std::string, MonitorStateDecl>&& states) {
  auto decl = std::make_unique<MonitorDecl>();
  decl->type = type;
  decl->states.reserve(states.size());
  for (auto& [name, state] : states) {
    decl->by_name.emplace(name, static_cast<StateId>(decl->states.size()));
    CompiledMonitorState compiled;
    compiled.name = name;
    compiled.entry = std::move(state.entry);
    compiled.hot = state.hot;
    compiled.cold = state.cold;
    BuildHandlerTables(std::move(state.handlers), compiled.handlers,
                       compiled.handler_index);
    for (const EventTypeId id : state.ignores) {
      compiled.ignores.Insert(id);
    }
    decl->states.push_back(std::move(compiled));
  }
  return decl;
}

}  // namespace

const MachineDecl* DeclRegistry::FindMachineDecl(std::type_index type) {
  const std::lock_guard<std::mutex> lock(RegistryMutex());
  const auto it = MachineDecls().find(type);
  return it == MachineDecls().end() ? nullptr : it->second.get();
}

const MachineDecl* DeclRegistry::GetOrCompileMachineDecl(
    std::type_index type, std::map<std::string, StateDecl>&& states) {
  const std::lock_guard<std::mutex> lock(RegistryMutex());
  const auto it = MachineDecls().find(type);
  if (it != MachineDecls().end()) {
    return it->second.get();  // lost a benign first-instance race
  }
  return MachineDecls()
      .emplace(type, Compile(type, std::move(states)))
      .first->second.get();
}

const MonitorDecl* DeclRegistry::FindMonitorDecl(std::type_index type) {
  const std::lock_guard<std::mutex> lock(RegistryMutex());
  const auto it = MonitorDecls().find(type);
  return it == MonitorDecls().end() ? nullptr : it->second.get();
}

const MonitorDecl* DeclRegistry::GetOrCompileMonitorDecl(
    std::type_index type, std::map<std::string, MonitorStateDecl>&& states) {
  const std::lock_guard<std::mutex> lock(RegistryMutex());
  const auto it = MonitorDecls().find(type);
  if (it != MonitorDecls().end()) {
    return it->second.get();
  }
  return MonitorDecls()
      .emplace(type, CompileMonitor(type, std::move(states)))
      .first->second.get();
}

namespace {

[[noreturn]] void ThrowDeclDrift(const char* type_name, const std::string& what) {
  throw BugFound(
      BugKind::kHarnessError,
      std::string("machine/monitor type '") + type_name +
          "' declared different states than the first instance of its type (" +
          what +
          "); a state graph that varies per instance must be split into one "
          "machine type per graph");
}

void CheckSetMatches(const EventIdSet& compiled, const std::set<EventTypeId>& built,
                     const char* type_name, const char* kind) {
  if (compiled.Count() != built.size()) {
    ThrowDeclDrift(type_name, std::string(kind) + " count differs");
  }
  for (const EventTypeId id : built) {
    if (!compiled.Contains(id)) {
      ThrowDeclDrift(type_name, std::string(kind) + " registrations differ");
    }
  }
}

}  // namespace

void VerifyDeclMatches(const MachineDecl& decl,
                       const std::map<std::string, StateDecl>& states,
                       const char* type_name) {
  if (decl.states.size() != states.size()) {
    ThrowDeclDrift(type_name, "state count differs");
  }
  for (const auto& [name, built] : states) {
    const CompiledState* compiled = decl.FindState(name);
    if (compiled == nullptr) {
      ThrowDeclDrift(type_name, "state '" + name + "' not in the shared decl");
    }
    if (compiled->handlers.size() != built.handlers.size()) {
      ThrowDeclDrift(type_name, "handler count differs in state '" + name + "'");
    }
    for (const auto& [id, handler] : built.handlers) {
      // A handler is visible either directly in the dispatch table or
      // shadowed there by a goto for the same event.
      if (compiled->DispatchOf(id) < 0 && !compiled->goto_names.contains(id)) {
        ThrowDeclDrift(type_name, "handlers differ in state '" + name + "'");
      }
    }
    if (compiled->goto_names.size() != built.gotos.size()) {
      ThrowDeclDrift(type_name, "goto count differs in state '" + name + "'");
    }
    for (const auto& [id, target] : built.gotos) {
      const auto it = compiled->goto_names.find(id);
      if (it == compiled->goto_names.end() || it->second != target) {
        ThrowDeclDrift(type_name, "gotos differ in state '" + name + "'");
      }
    }
    CheckSetMatches(compiled->defers, built.defers, type_name, "defer");
    CheckSetMatches(compiled->ignores, built.ignores, type_name, "ignore");
    if (compiled->entry.Valid() != built.entry.Valid() ||
        static_cast<bool>(compiled->exit) != static_cast<bool>(built.exit) ||
        compiled->hot != built.hot || compiled->cold != built.cold) {
      ThrowDeclDrift(type_name,
                     "entry/exit/hot/cold differ in state '" + name + "'");
    }
  }
}

void VerifyMonitorDeclMatches(
    const MonitorDecl& decl,
    const std::map<std::string, MonitorStateDecl>& states,
    const char* type_name) {
  if (decl.states.size() != states.size()) {
    ThrowDeclDrift(type_name, "state count differs");
  }
  for (const auto& [name, built] : states) {
    const CompiledMonitorState* compiled = decl.FindState(name);
    if (compiled == nullptr) {
      ThrowDeclDrift(type_name, "state '" + name + "' not in the shared decl");
    }
    if (compiled->handlers.size() != built.handlers.size()) {
      ThrowDeclDrift(type_name, "handler count differs in state '" + name + "'");
    }
    for (const auto& [id, handler] : built.handlers) {
      if (compiled->HandlerIndexOf(id) < 0) {
        ThrowDeclDrift(type_name, "handlers differ in state '" + name + "'");
      }
    }
    CheckSetMatches(compiled->ignores, built.ignores, type_name, "ignore");
    if (static_cast<bool>(compiled->entry) != static_cast<bool>(built.entry) ||
        compiled->hot != built.hot || compiled->cold != built.cold) {
      ThrowDeclDrift(type_name,
                     "entry/hot/cold differ in state '" + name + "'");
    }
  }
}

std::size_t DeclRegistry::MachineDeclCount() {
  const std::lock_guard<std::mutex> lock(RegistryMutex());
  return MachineDecls().size();
}

bool SkipDeclBuild() noexcept { return g_skip_decl_build; }

ScopedDeclSkip::ScopedDeclSkip() noexcept : previous_(g_skip_decl_build) {
  g_skip_decl_build = true;
}

ScopedDeclSkip::~ScopedDeclSkip() { g_skip_decl_build = previous_; }

}  // namespace systest::detail
