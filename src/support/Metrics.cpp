#include "support/Metrics.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace afl;

uint64_t afl::readPeakRssKb() {
  // VmHWM ("high water mark") is the peak resident set of the process;
  // procfs reports it in kB. Missing file or line → 0.
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  uint64_t Kb = 0;
  char Line[256];
  while (std::fgets(Line, sizeof(Line), F)) {
    if (std::strncmp(Line, "VmHWM:", 6) == 0) {
      unsigned long long Value = 0;
      if (std::sscanf(Line + 6, "%llu", &Value) == 1)
        Kb = Value;
      break;
    }
  }
  std::fclose(F);
  return Kb;
}

//===----------------------------------------------------------------------===//
// Node
//===----------------------------------------------------------------------===//

struct MetricsRegistry::Node {
  enum class Kind { Scope, Counter, Peak, Timer, Text };

  std::string Name;
  Kind NodeKind = Kind::Scope;
  uint64_t Count = 0;
  double Seconds = 0;
  std::string Text;
  /// Children in insertion order (scopes and leaves interleaved).
  std::vector<std::unique_ptr<Node>> Children;

  Node *child(std::string_view ChildName, Kind K) {
    for (auto &C : Children)
      if (C->Name == ChildName)
        return C.get();
    auto N = std::make_unique<Node>();
    N->Name = std::string(ChildName);
    N->NodeKind = K;
    Children.push_back(std::move(N));
    return Children.back().get();
  }

  const Node *findChild(std::string_view ChildName) const {
    for (const auto &C : Children)
      if (C->Name == ChildName)
        return C.get();
    return nullptr;
  }
};

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

MetricsRegistry::MetricsRegistry() : Root(std::make_unique<Node>()) {
  Stack.push_back(Root.get());
}

MetricsRegistry::~MetricsRegistry() = default;
MetricsRegistry::MetricsRegistry(MetricsRegistry &&) noexcept = default;
MetricsRegistry &
MetricsRegistry::operator=(MetricsRegistry &&) noexcept = default;

void MetricsRegistry::push(std::string_view Name) {
  Stack.push_back(Stack.back()->child(Name, Node::Kind::Scope));
}

void MetricsRegistry::pop() {
  if (Stack.size() > 1)
    Stack.pop_back();
}

void MetricsRegistry::add(std::string_view Name, uint64_t Delta) {
  Stack.back()->child(Name, Node::Kind::Counter)->Count += Delta;
}

void MetricsRegistry::set(std::string_view Name, uint64_t Value) {
  Stack.back()->child(Name, Node::Kind::Counter)->Count = Value;
}

void MetricsRegistry::setMax(std::string_view Name, uint64_t Value) {
  Node *N = Stack.back()->child(Name, Node::Kind::Peak);
  N->Count = std::max(N->Count, Value);
}

void MetricsRegistry::addTime(std::string_view Name, double Seconds) {
  Stack.back()->child(Name, Node::Kind::Timer)->Seconds += Seconds;
}

void MetricsRegistry::setText(std::string_view Name, std::string_view Value) {
  Stack.back()->child(Name, Node::Kind::Text)->Text = std::string(Value);
}

const MetricsRegistry::Node *
MetricsRegistry::find(std::string_view Path) const {
  const Node *N = Root.get();
  while (N && !Path.empty()) {
    size_t Slash = Path.find('/');
    std::string_view Head =
        Slash == std::string_view::npos ? Path : Path.substr(0, Slash);
    Path = Slash == std::string_view::npos ? std::string_view()
                                           : Path.substr(Slash + 1);
    N = N->findChild(Head);
  }
  return N;
}

uint64_t MetricsRegistry::counter(std::string_view Path) const {
  const Node *N = find(Path);
  return N && (N->NodeKind == Node::Kind::Counter ||
               N->NodeKind == Node::Kind::Peak)
             ? N->Count
             : 0;
}

double MetricsRegistry::timer(std::string_view Path) const {
  const Node *N = find(Path);
  return N && N->NodeKind == Node::Kind::Timer ? N->Seconds : 0.0;
}

std::string MetricsRegistry::text(std::string_view Path) const {
  const Node *N = find(Path);
  return N && N->NodeKind == Node::Kind::Text ? N->Text : std::string();
}

bool MetricsRegistry::has(std::string_view Path) const {
  return find(Path) != nullptr;
}

void MetricsRegistry::merge(const MetricsRegistry &Other) {
  // Recursive pointwise sum (max for peaks); scopes are created on demand.
  struct Merger {
    static void run(Node *Dst, const Node *Src) {
      for (const auto &C : Src->Children) {
        Node *D = Dst->child(C->Name, C->NodeKind);
        D->Count = C->NodeKind == Node::Kind::Peak
                       ? std::max(D->Count, C->Count)
                       : D->Count + C->Count;
        D->Seconds += C->Seconds;
        // Text has no meaningful sum; first non-empty value wins.
        if (D->Text.empty())
          D->Text = C->Text;
        run(D, C.get());
      }
    }
  };
  Merger::run(Stack.back(), Other.Root.get());
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

std::string MetricsRegistry::json(bool Pretty) const {
  std::string Out;
  json::Writer W(Out, Pretty);
  struct Renderer {
    json::Writer &W;

    void scope(const Node &N) {
      W.beginObject();
      for (const auto &C : N.Children) {
        W.key(C->Name);
        switch (C->NodeKind) {
        case Node::Kind::Scope:
          scope(*C);
          break;
        case Node::Kind::Counter:
        case Node::Kind::Peak:
          W.integer(C->Count);
          break;
        case Node::Kind::Timer:
          W.seconds(C->Seconds);
          break;
        case Node::Kind::Text:
          W.string(C->Text);
          break;
        }
      }
      W.endObject();
    }
  };
  Renderer{W}.scope(*Root);
  if (Pretty)
    Out += '\n';
  return Out;
}
