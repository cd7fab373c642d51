#include "check.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

int64_t tOfMCX(int64_t Controls) {
  return Controls < 2 ? 0 : 7 * (2 * (Controls - 2) + 1);
}

int64_t tOfControlledH(int64_t Controls) {
  return Controls < 1 ? 0 : 8 + 14 * (Controls - 1);
}

namespace {

bool startsWith(std::string_view S, std::string_view P) {
  return S.substr(0, P.size()) == P;
}

/// Calls \p Fn on every line of \p Text (without the newline) until it
/// returns false.
template <typename Fn> void forEachLine(std::string_view Text, Fn &&Fn_) {
  size_t Pos = 0;
  while (Pos < Text.size()) {
    const void *NL = std::memchr(Text.data() + Pos, '\n', Text.size() - Pos);
    size_t End = NL ? static_cast<size_t>(static_cast<const char *>(NL) -
                                          Text.data())
                    : Text.size();
    if (!Fn_(Text.substr(Pos, End - Pos)))
      return;
    Pos = End + 1;
  }
}

/// Adds one gate given its mnemonic family and operand count.
bool addGate(Scan &S, std::string_view Name, int64_t Operands) {
  int64_t Controls = Operands - 1;
  if (Operands < 1)
    return false;
  ++S.Gates;
  if (Name == "tof" || Name == "x" || Name == "cx" || Name == "ccx") {
    S.T += tOfMCX(Controls);
  } else if (Name == "H" || Name == "CH" || Name == "h" || Name == "ch") {
    S.T += tOfControlledH(Controls);
  } else if (Name == "T" || Name == "T*" || Name == "t" || Name == "tdg") {
    S.T += 1;
  } else if (!(Name == "S" || Name == "S*" || Name == "Z" || Name == "s" ||
               Name == "sdg" || Name == "z" || Name == "cz")) {
    return false;
  }
  return true;
}

void scanQc(std::string_view Text, Scan &S) {
  bool InBody = false, Ended = false;
  forEachLine(Text, [&](std::string_view Line) {
    if (!InBody) {
      if (Line == "BEGIN")
        InBody = true;
      else if (!Line.empty() && Line[0] != '.')
        S.Error = "unexpected header line";
      return S.Error.empty();
    }
    if (Line == "END") {
      Ended = true;
      return false;
    }
    size_t Sp = Line.find(' ');
    std::string_view Name = Line.substr(0, Sp);
    int64_t Operands = 0;
    for (char C : Line)
      Operands += C == ' ';
    if (!addGate(S, Name, Operands))
      S.Error = "unknown .qc gate line";
    return S.Error.empty();
  });
  if (S.Error.empty() && !Ended)
    S.Error = "no END line";
}

void scanQasm(std::string_view Text, Scan &S) {
  forEachLine(Text, [&](std::string_view Line) {
    if (Line.empty() || startsWith(Line, "//") ||
        startsWith(Line, "OPENQASM") || startsWith(Line, "include") ||
        startsWith(Line, "qubit["))
      return true;
    if (startsWith(Line, "ctrl")) {
      size_t At = Line.find("@ ");
      if (At == std::string_view::npos) {
        S.Error = "bad ctrl modifier";
        return false;
      }
      Line.remove_prefix(At + 2);
    }
    size_t Sp = Line.find(' ');
    std::string_view Name = Line.substr(0, Sp);
    int64_t Operands = 1;
    for (char C : Line)
      Operands += C == ',';
    if (Sp == std::string_view::npos || Line.back() != ';' ||
        !addGate(S, Name, Operands))
      S.Error = "unknown QASM gate line";
    return S.Error.empty();
  });
}

} // namespace

Scan scanCircuitText(std::string_view Text) {
  Scan S;
  S.Bytes = static_cast<int64_t>(Text.size());
  S.Hash = contentHash(Text);
  if (startsWith(Text, "OPENQASM"))
    scanQasm(Text, S);
  else
    scanQc(Text, S);
  S.OK = S.Error.empty();
  return S;
}

uint64_t contentHash(std::string_view Bytes) {
  const uint64_t K = 0x9E3779B97F4A7C15ull;
  uint64_t H = 0x243F6A8885A308D3ull ^ Bytes.size();
  size_t I = 0;
  for (; I + 8 <= Bytes.size(); I += 8) {
    uint64_t W;
    std::memcpy(&W, Bytes.data() + I, 8);
    H = (H ^ W) * K;
    H ^= H >> 29;
  }
  uint64_t Tail = 0;
  if (I < Bytes.size())
    std::memcpy(&Tail, Bytes.data() + I, Bytes.size() - I);
  H = (H ^ Tail) * K;
  H ^= H >> 30;
  H *= 0xBF58476D1CE4E5B9ull;
  H ^= H >> 27;
  H *= 0x94D049BB133111EBull;
  return H ^ (H >> 31);
}

bool loadExpected(const std::string &Path, Expected &Out, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read " + Path;
    return false;
  }
  std::string Line;
  int LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Kind, Id;
    Fields >> Kind >> Id;
    bool OK = false;
    if (Kind == "cost") {
      ExpectedCost C;
      OK = static_cast<bool>(Fields >> C.BeforeMCX >> C.BeforeT >> C.AfterMCX >>
                             C.AfterT);
      Out.Costs[Id] = C;
    } else if (Kind == "artifact") {
      ExpectedArtifact A;
      std::string Hex;
      OK = static_cast<bool>(Fields >> A.Bytes >> A.Gates >> A.T >> Hex) &&
           std::sscanf(Hex.c_str(), "%" SCNx64, &A.Hash) == 1;
      Out.Artifacts[Id] = A;
    }
    if (!OK) {
      Error = Path + ":" + std::to_string(LineNo) + ": malformed line";
      return false;
    }
  }
  return true;
}

std::string costLine(const std::string &Id, const ExpectedCost &C) {
  std::ostringstream Out;
  Out << "cost " << Id << ' ' << C.BeforeMCX << ' ' << C.BeforeT << ' '
      << C.AfterMCX << ' ' << C.AfterT;
  return Out.str();
}

std::string artifactLine(const std::string &Id, const Scan &S) {
  char Hex[24];
  std::snprintf(Hex, sizeof(Hex), "%016" PRIx64, S.Hash);
  std::ostringstream Out;
  Out << "artifact " << Id << ' ' << S.Bytes << ' ' << S.Gates << ' ' << S.T
      << ' ' << Hex;
  return Out.str();
}

bool slurp(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  In.seekg(0, std::ios::end);
  std::streamoff Size = In.tellg();
  if (Size < 0)
    return false;
  Out.resize(static_cast<size_t>(Size));
  In.seekg(0);
  return static_cast<bool>(In.read(Out.data(), Size));
}

} // namespace perfbench
