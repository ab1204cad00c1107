#include "artifact/codec.hpp"

#include "energy/events.hpp"
#include "isa/opcodes.hpp"

namespace vwr2a::artifact {

namespace {

using cgra::tc::Block;
using cgra::tc::Cond;
using cgra::tc::Dst;
using cgra::tc::LcuUop;
using cgra::tc::Line;
using cgra::tc::LsuUop;
using cgra::tc::MxcuUop;
using cgra::tc::RcUop;
using cgra::tc::Src;
using cgra::tc::Term;

/// True when a u8 tag is a valid value of an enum whose last valid value
/// is `max` (inclusive).
template <typename E>
bool tag_ok(std::uint8_t v, E max) {
  return v <= static_cast<std::uint8_t>(max);
}

/// Enums with a kCount sentinel: valid strictly below it.
template <typename E>
bool tag_lt_count(std::uint8_t v) {
  return v < static_cast<std::uint8_t>(E::kCount);
}

// --- trace sub-structures -----------------------------------------------------

void encode_src(const Src& s, Writer& w) {
  w.u8(static_cast<std::uint8_t>(s.k));
  w.u8(s.vwr);
  w.u8(s.rc);
  w.u8(s.idx);
  w.u16(s.base);
  w.u32(s.imm);
}

bool parse_src(Reader& r, Src& s) {
  const std::uint8_t k = r.u8();
  s.vwr = r.u8();
  s.rc = r.u8();
  s.idx = r.u8();
  s.base = r.u16();
  s.imm = r.u32();
  if (!r.ok() || !tag_ok(k, Src::K::kCross)) return false;
  s.k = static_cast<Src::K>(k);
  // Every field that later indexes a simulator array is bounded here, so a
  // hostile payload cannot place an access outside the column's state.
  if (s.vwr >= arch::kVwrsPerColumn || s.rc >= arch::kRcsPerColumn ||
      s.idx >= arch::kSrfEntries || s.base >= arch::kVwrWords) {
    return false;
  }
  if (s.k == Src::K::kRf && s.idx >= arch::kRcRegs) return false;
  return true;
}

void encode_rc_uop(const RcUop& u, Writer& w) {
  w.u8(static_cast<std::uint8_t>(u.op));
  w.u8(u.unary ? 1 : 0);
  encode_src(u.a, w);
  encode_src(u.b, w);
  w.u8(static_cast<std::uint8_t>(u.d));
  w.u8(u.vwr);
  w.u8(u.idx);
  w.u16(u.base);
}

bool parse_rc_uop(Reader& r, RcUop& u) {
  const std::uint8_t op = r.u8();
  u.unary = r.u8() != 0;
  if (!parse_src(r, u.a) || !parse_src(r, u.b)) return false;
  const std::uint8_t d = r.u8();
  u.vwr = r.u8();
  u.idx = r.u8();
  u.base = r.u16();
  if (!r.ok() || !tag_lt_count<isa::RcOp>(op) || !tag_ok(d, Dst::kSrf)) {
    return false;
  }
  u.op = static_cast<isa::RcOp>(op);
  u.d = static_cast<Dst>(d);
  if (u.vwr >= arch::kVwrsPerColumn || u.idx >= arch::kSrfEntries ||
      u.base >= arch::kVwrWords) {
    return false;
  }
  if (u.d == Dst::kRf && u.idx >= arch::kRcRegs) return false;
  return true;
}

void encode_lsu_uop(const LsuUop& u, Writer& w) {
  w.u8(static_cast<std::uint8_t>(u.op));
  w.u8(static_cast<std::uint8_t>(u.amode));
  w.u8(u.vwr);
  w.u8(u.srf_base);
  w.u8(u.srf_data);
  w.u8(static_cast<std::uint8_t>(u.mode));
  w.i32(u.imm);
}

bool parse_lsu_uop(Reader& r, LsuUop& u) {
  const std::uint8_t op = r.u8();
  const std::uint8_t amode = r.u8();
  u.vwr = r.u8();
  u.srf_base = r.u8();
  u.srf_data = r.u8();
  const std::uint8_t mode = r.u8();
  u.imm = r.i32();
  if (!r.ok() || !tag_lt_count<isa::LsuOp>(op) ||
      !tag_lt_count<isa::LsuAddrMode>(amode) ||
      !tag_lt_count<isa::ShufMode>(mode)) {
    return false;
  }
  u.op = static_cast<isa::LsuOp>(op);
  u.amode = static_cast<isa::LsuAddrMode>(amode);
  u.mode = static_cast<isa::ShufMode>(mode);
  if (u.vwr >= arch::kVwrsPerColumn || u.srf_base >= arch::kSrfEntries ||
      u.srf_data >= arch::kSrfEntries) {
    return false;
  }
  return true;
}

void encode_mxcu_uop(const MxcuUop& u, Writer& w) {
  w.u8(static_cast<std::uint8_t>(u.op));
  w.u8(u.srf);
  w.i32(u.imm);
}

bool parse_mxcu_uop(Reader& r, MxcuUop& u) {
  const std::uint8_t op = r.u8();
  u.srf = r.u8();
  u.imm = r.i32();
  if (!r.ok() || !tag_lt_count<isa::MxcuOp>(op) || u.srf >= arch::kSrfEntries) {
    return false;
  }
  u.op = static_cast<isa::MxcuOp>(op);
  return true;
}

void encode_lcu_uop(const LcuUop& u, Writer& w) {
  w.u8(static_cast<std::uint8_t>(u.op));
  w.u8(u.rd);
  w.u8(u.ra);
  w.u8(u.srf);
  w.i32(u.imm);
}

bool parse_lcu_uop(Reader& r, LcuUop& u) {
  const std::uint8_t op = r.u8();
  u.rd = r.u8();
  u.ra = r.u8();
  u.srf = r.u8();
  u.imm = r.i32();
  if (!r.ok() || !tag_lt_count<isa::LcuOp>(op) || u.rd >= arch::kLcuRegs ||
      u.ra >= arch::kLcuRegs || u.srf >= arch::kSrfEntries) {
    return false;
  }
  u.op = static_cast<isa::LcuOp>(op);
  return true;
}

void encode_line(const Line& l, Writer& w) {
  w.u8(static_cast<std::uint8_t>(l.kind));
  w.u8(l.rc_mask);
  w.u8(l.quad ? 1 : 0);
  w.u8(l.has_lsu ? 1 : 0);
  w.u8(l.has_mxcu ? 1 : 0);
  w.u8(l.has_lcu ? 1 : 0);
  for (const RcUop& u : l.rc) encode_rc_uop(u, w);
  encode_lsu_uop(l.lsu, w);
  encode_mxcu_uop(l.mxcu, w);
  encode_lcu_uop(l.lcu, w);
}

bool parse_line(Reader& r, Line& l) {
  const std::uint8_t kind = r.u8();
  l.rc_mask = r.u8();
  l.quad = r.u8() != 0;
  l.has_lsu = r.u8() != 0;
  l.has_mxcu = r.u8() != 0;
  l.has_lcu = r.u8() != 0;
  if (!tag_ok(kind, Line::Kind::kGeneric)) return false;
  l.kind = static_cast<Line::Kind>(kind);
  if (l.rc_mask >= (1u << arch::kRcsPerColumn)) return false;
  for (RcUop& u : l.rc) {
    if (!parse_rc_uop(r, u)) return false;
  }
  // The quad handler key is derived, not stored: a quad line whose shape
  // names no handler is rejected like any other bad tag.
  l.key = cgra::tc::derive_quad_key(l);
  if ((l.quad || l.kind == Line::Kind::kQuadFast) &&
      l.key == cgra::tc::kNoQuadKey) {
    return false;
  }
  return parse_lsu_uop(r, l.lsu) && parse_mxcu_uop(r, l.mxcu) &&
         parse_lcu_uop(r, l.lcu);
}

void encode_block(const Block& b, Writer& w) {
  w.u16(b.first);
  w.u16(b.len);
  w.u8(static_cast<std::uint8_t>(b.term));
  w.u8(static_cast<std::uint8_t>(b.cond));
  w.u8(b.ra);
  w.u8(b.rb);
  w.u8(b.rd);
  w.u8(b.srf);
  w.i32(b.imm);
  w.u16(b.target);
  w.u8(b.fuse_self_loop ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(b.energy.size()));
  for (const energy::EventDelta& d : b.energy) {
    w.u8(static_cast<std::uint8_t>(d.e));
    w.u64(d.n);
  }
}

bool parse_block(Reader& r, Block& b, std::size_t nlines) {
  b.first = r.u16();
  b.len = r.u16();
  const std::uint8_t term = r.u8();
  const std::uint8_t cond = r.u8();
  b.ra = r.u8();
  b.rb = r.u8();
  b.rd = r.u8();
  b.srf = r.u8();
  b.imm = r.i32();
  b.target = r.u16();
  b.fuse_self_loop = r.u8() != 0;
  const std::uint32_t ne = r.u32();
  if (!r.ok() || !tag_ok(term, Term::kExit) || !tag_ok(cond, Cond::kSrfNz)) {
    return false;
  }
  b.term = static_cast<Term>(term);
  b.cond = static_cast<Cond>(cond);
  // Block geometry and branch target must stay inside the line array the
  // replay loop will index.
  if (b.len == 0 || b.first >= nlines || b.first + b.len > nlines ||
      b.target >= nlines) {
    return false;
  }
  if (b.ra >= arch::kLcuRegs || b.rb >= arch::kLcuRegs ||
      b.rd >= arch::kLcuRegs || b.srf >= arch::kSrfEntries) {
    return false;
  }
  // 9 bytes per delta; bound the count by the remaining payload before
  // reserving anything.
  if (ne > r.remaining() / 9) return false;
  b.energy.resize(ne);
  for (energy::EventDelta& d : b.energy) {
    const std::uint8_t e = r.u8();
    d.n = r.u64();
    // EnergyMeter::add_block indexes counts_[e]: out-of-range here would
    // be an out-of-bounds write, so this check is load-bearing.
    if (!r.ok() || !tag_lt_count<energy::Event>(e)) return false;
    d.e = static_cast<energy::Event>(e);
  }
  return true;
}

} // namespace

// --- programs -----------------------------------------------------------------

void encode_program(const isa::ColumnProgram& prog,
                    std::vector<std::uint8_t>& out) {
  Writer w(out);
  w.u32(prog.length());
  for (unsigned s = 0; s < arch::kSlotsPerColumn; ++s) {
    for (std::uint32_t word : prog.stream(static_cast<Slot>(s))) w.u32(word);
  }
}

bool parse_program(Reader& r, isa::ColumnProgram& out) {
  const std::uint32_t len = r.u32();
  if (!r.ok() || len > arch::kProgramWords) return false;
  std::array<std::vector<std::uint32_t>, arch::kSlotsPerColumn> streams;
  for (auto& stream : streams) {
    stream.resize(len);
    for (std::uint32_t& word : stream) word = r.u32();
  }
  if (!r.ok()) return false;
  out = isa::ColumnProgram();
  for (std::uint32_t pc = 0; pc < len; ++pc) {
    std::array<std::uint32_t, arch::kSlotsPerColumn> line;
    for (unsigned s = 0; s < arch::kSlotsPerColumn; ++s) {
      line[s] = streams[s][pc];
    }
    out.append_line(line);
  }
  return true;
}

// --- kernel images ------------------------------------------------------------

void encode_image(const isa::KernelImage& image, std::vector<std::uint8_t>& out) {
  Writer w(out);
  w.str(image.name);
  w.u8(static_cast<std::uint8_t>(image.columns));
  for (const isa::ColumnProgram& p : image.program) encode_program(p, out);
}

bool parse_image(Reader& r, isa::KernelImage& out) {
  out.name = r.str();
  const std::uint8_t columns = r.u8();
  if (!r.ok() ||
      columns < static_cast<std::uint8_t>(isa::ColumnSet::kCol0) ||
      columns > static_cast<std::uint8_t>(isa::ColumnSet::kBoth)) {
    return false;
  }
  out.columns = static_cast<isa::ColumnSet>(columns);
  for (isa::ColumnProgram& p : out.program) {
    if (!parse_program(r, p)) return false;
  }
  return true;
}

// --- compiled traces ----------------------------------------------------------

void encode_trace(const cgra::CompiledTrace& trace,
                  std::vector<std::uint8_t>& out) {
  Writer w(out);
  w.u8(trace.ok ? 1 : 0);
  w.str(trace.bail_reason);
  w.u32(static_cast<std::uint32_t>(trace.lines.size()));
  for (const Line& l : trace.lines) encode_line(l, w);
  w.u32(static_cast<std::uint32_t>(trace.blocks.size()));
  for (const Block& b : trace.blocks) encode_block(b, w);
  w.u32(static_cast<std::uint32_t>(trace.block_of.size()));
  for (std::uint16_t b : trace.block_of) w.u16(b);
}

bool parse_trace(Reader& r, cgra::CompiledTrace& out) {
  out.ok = r.u8() != 0;
  out.bail_reason = r.str();
  const std::uint32_t nlines = r.u32();
  if (!r.ok() || nlines > arch::kProgramWords) return false;
  out.lines.resize(nlines);
  for (Line& l : out.lines) {
    if (!parse_line(r, l)) return false;
  }
  const std::uint32_t nblocks = r.u32();
  if (!r.ok() || nblocks > nlines) return false;
  out.blocks.resize(nblocks);
  for (Block& b : out.blocks) {
    if (!parse_block(r, b, nlines)) return false;
  }
  const std::uint32_t nmap = r.u32();
  if (!r.ok() || nmap != nlines) return false;
  out.block_of.resize(nmap);
  for (std::uint16_t& b : out.block_of) {
    b = r.u16();
    if (b >= nblocks) return false;
  }
  if (!r.ok()) return false;
  // A replayable trace with no lines or no blocks would send the replay
  // loop straight out of bounds.
  if (out.ok && (nlines == 0 || nblocks == 0)) return false;
  return true;
}

} // namespace vwr2a::artifact
