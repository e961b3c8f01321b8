#include "nn/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "gpusim/device.hpp"
#include "nn/layer.hpp"
#include "nn/optim.hpp"

namespace sagesim::nn {

namespace {

constexpr char kMagic[8] = {'S', 'G', 'S', 'M', 'C', 'K', 'P', 'T'};
// v2 added a per-tensor placement byte + device ordinal; v1 files still
// load (host placement for everything).
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kMinVersion = 1;

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// --- payload writer/reader (host-endian; the simulator never ships files
// across architectures) -----------------------------------------------------

template <typename T>
void put(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void put_str(std::string& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

struct Reader {
  const std::string& buf;
  std::size_t pos{0};
  bool failed{false};

  template <typename T>
  T get() {
    T v{};
    if (failed || pos + sizeof(T) > buf.size()) {
      failed = true;
      return v;
    }
    std::memcpy(&v, buf.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }

  std::string get_str() {
    const auto n = get<std::uint32_t>();
    if (failed || pos + n > buf.size()) {
      failed = true;
      return {};
    }
    std::string s = buf.substr(pos, n);
    pos += n;
    return s;
  }
};

std::string encode_payload(const Checkpoint& ckpt) {
  std::string p;
  put<std::uint32_t>(p, static_cast<std::uint32_t>(ckpt.tensors.size()));
  for (const auto& [name, t] : ckpt.tensors) {
    put_str(p, name);
    put<std::uint64_t>(p, t.rows());
    put<std::uint64_t>(p, t.cols());
    const TensorPlacement place = ckpt.placement_of(name);
    put<std::uint8_t>(p, static_cast<std::uint8_t>(place.placement));
    put<std::int32_t>(p, place.device);
    p.append(reinterpret_cast<const char*>(t.data()),
             t.size() * sizeof(float));
  }
  put<std::uint32_t>(p, static_cast<std::uint32_t>(ckpt.blobs.size()));
  for (const auto& [name, blob] : ckpt.blobs) {
    put_str(p, name);
    put_str(p, blob);
  }
  put<std::uint32_t>(p, static_cast<std::uint32_t>(ckpt.scalars.size()));
  for (const auto& [name, value] : ckpt.scalars) {
    put_str(p, name);
    put<double>(p, value);
  }
  return p;
}

bool decode_payload(const std::string& payload, std::uint32_t version,
                    Checkpoint& ckpt) {
  Reader r{payload};
  const auto n_tensors = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_tensors && !r.failed; ++i) {
    std::string name = r.get_str();
    const auto rows = r.get<std::uint64_t>();
    const auto cols = r.get<std::uint64_t>();
    TensorPlacement place;
    if (version >= 2) {
      const auto raw = r.get<std::uint8_t>();
      place.device = r.get<std::int32_t>();
      if (raw > static_cast<std::uint8_t>(mem::Placement::kManaged)) {
        r.failed = true;
        break;
      }
      place.placement = static_cast<mem::Placement>(raw);
    }
    // The element count must fit the bytes left before anything is
    // allocated: rows * cols may overflow, or claim terabytes.
    const std::uint64_t left = (payload.size() - r.pos) / sizeof(float);
    if (r.failed || (cols != 0 && rows > left / cols)) {
      r.failed = true;
      break;
    }
    tensor::Tensor t(static_cast<std::size_t>(rows),
                     static_cast<std::size_t>(cols));
    const std::size_t bytes = t.size() * sizeof(float);
    std::memcpy(t.data(), payload.data() + r.pos, bytes);
    r.pos += bytes;
    ckpt.placements.emplace(name, place);
    ckpt.tensors.emplace(std::move(name), std::move(t));
  }
  const auto n_blobs = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_blobs && !r.failed; ++i) {
    std::string name = r.get_str();
    std::string blob = r.get_str();
    if (!r.failed) ckpt.blobs.emplace(std::move(name), std::move(blob));
  }
  const auto n_scalars = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_scalars && !r.failed; ++i) {
    std::string name = r.get_str();
    const double value = r.get<double>();
    if (!r.failed) ckpt.scalars.emplace(std::move(name), value);
  }
  return !r.failed && r.pos == payload.size();
}

}  // namespace

void Checkpoint::put(const std::string& name, const tensor::Tensor& t) {
  TensorPlacement place;
  place.placement = t.placement();
  place.device = t.device() != nullptr ? t.device()->ordinal() : -1;
  placements[name] = place;
  tensors[name] = t.host_copy();
}

TensorPlacement Checkpoint::placement_of(const std::string& name) const {
  auto it = placements.find(name);
  return it == placements.end() ? TensorPlacement{} : it->second;
}

Status save_checkpoint(const std::string& path, const Checkpoint& ckpt) {
  const std::string payload = encode_payload(ckpt);
  std::string file;
  file.append(kMagic, sizeof(kMagic));
  put<std::uint32_t>(file, kVersion);
  put<std::uint64_t>(file, ckpt.epoch);
  put<std::uint64_t>(file, payload.size());
  put<std::uint64_t>(file, fnv1a64(payload));
  file.append(payload);

  const std::string tmp = path + ".tmp";
  {
    std::error_code ec;
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      return Status::internal("checkpoint: cannot open " + tmp);
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    out.flush();
    if (!out)
      return Status::internal("checkpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    return Status::internal("checkpoint: rename to " + path + " failed");
  return {};
}

Expected<Checkpoint> load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return Status::unavailable("checkpoint: no file at " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string file = ss.str();

  constexpr std::size_t kHeader =
      sizeof(kMagic) + sizeof(std::uint32_t) + 3 * sizeof(std::uint64_t);
  if (file.size() < kHeader)
    return Status::data_loss("checkpoint: truncated header in " + path);
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0)
    return Status::data_loss("checkpoint: bad magic in " + path);

  Reader r{file, sizeof(kMagic)};
  const auto version = r.get<std::uint32_t>();
  if (version < kMinVersion || version > kVersion)
    return Status::data_loss("checkpoint: unsupported version " +
                             std::to_string(version) + " in " + path);
  Checkpoint ckpt;
  ckpt.epoch = r.get<std::uint64_t>();
  const auto payload_bytes = r.get<std::uint64_t>();
  const auto checksum = r.get<std::uint64_t>();
  if (file.size() - kHeader != payload_bytes)
    return Status::data_loss("checkpoint: truncated payload in " + path);
  const std::string payload = file.substr(kHeader);
  if (fnv1a64(payload) != checksum)
    return Status::data_loss("checkpoint: checksum mismatch in " + path);
  if (!decode_payload(payload, version, ckpt))
    return Status::data_loss("checkpoint: malformed payload in " + path);
  return ckpt;
}

std::string checkpoint_path(const std::string& dir, const std::string& prefix,
                            std::uint64_t epoch) {
  return dir + "/" + prefix + "_epoch" + std::to_string(epoch) + ".ckpt";
}

Expected<Checkpoint> load_latest_checkpoint(const std::string& dir,
                                            const std::string& prefix) {
  std::error_code ec;
  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  const std::string stem_prefix = prefix + "_epoch";
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(stem_prefix, 0) != 0) continue;
    if (entry.path().extension() != ".ckpt") continue;
    const std::string digits =
        entry.path().stem().string().substr(stem_prefix.size());
    char* end = nullptr;
    const std::uint64_t epoch = std::strtoull(digits.c_str(), &end, 10);
    if (end == digits.c_str() || *end != '\0') continue;
    candidates.emplace_back(epoch, entry.path().string());
  }
  if (ec)
    return Status::unavailable("checkpoint: cannot scan " + dir);
  std::sort(candidates.rbegin(), candidates.rend());  // newest first

  Status last = Status::unavailable("checkpoint: none under " + dir +
                                    " with prefix " + prefix);
  for (const auto& [epoch, path] : candidates) {
    Expected<Checkpoint> loaded = load_checkpoint(path);
    if (loaded) return loaded;  // fall back past corrupt/truncated files
    last = loaded.status();
  }
  return last;
}

std::string serialize_engine(const std::mt19937_64& engine) {
  std::ostringstream ss;
  ss << engine;
  return ss.str();
}

Status deserialize_engine(const std::string& blob, std::mt19937_64& engine) {
  std::istringstream ss(blob);
  ss >> engine;
  if (ss.fail())
    return Status::data_loss("checkpoint: malformed RNG engine state");
  return {};
}

Expected<std::uint64_t> scalar_count(const Checkpoint& ckpt,
                                     const std::string& key) {
  const auto it = ckpt.scalars.find(key);
  const double v = it == ckpt.scalars.end() ? -1.0 : it->second;
  // NaN fails both comparisons, so this rejects it too.
  if (!(v >= 0.0 && v <= 9007199254740992.0) || v != std::floor(v))
    return Status::failed_precondition("checkpoint: scalar " + key +
                                       " missing or not a count");
  return static_cast<std::uint64_t>(v);
}

void put_replica_state(Checkpoint& ckpt, const std::string& prefix,
                       std::span<Param* const> params, const Optimizer& opt) {
  for (std::size_t p = 0; p < params.size(); ++p)
    ckpt.put(prefix + "param" + std::to_string(p), params[p]->value);
  const std::vector<tensor::Tensor> state = opt.state();
  for (std::size_t s = 0; s < state.size(); ++s)
    ckpt.put(prefix + "opt" + std::to_string(s), state[s]);
  ckpt.scalars[prefix + "opt_n"] = static_cast<double>(state.size());
  ckpt.scalars[prefix + "opt_t"] = static_cast<double>(opt.step_count());
}

Status take_replica_state(const Checkpoint& ckpt, const std::string& prefix,
                          std::span<Param* const> params, Optimizer& opt) {
  // The stored tensor @p name, provided it has @p like's shape.
  auto shaped = [&](const std::string& name, const tensor::Tensor& like)
      -> Expected<tensor::Tensor> {
    const auto it = ckpt.tensors.find(prefix + name);
    if (it == ckpt.tensors.end() || !it->second.same_shape(like))
      return Status::failed_precondition("checkpoint: " + prefix + name +
                                         " missing or misshapen");
    return it->second;
  };
  const Expected<std::uint64_t> n = scalar_count(ckpt, prefix + "opt_n");
  if (!n) return n.status();
  const Expected<std::uint64_t> t = scalar_count(ckpt, prefix + "opt_t");
  if (!t) return t.status();
  const std::size_t np = params.size();
  if (*n != 0 && *n != opt.state_per_param() * np)
    return Status::failed_precondition(
        "checkpoint: " + prefix + "opt_n does not fit the optimizer");
  std::vector<tensor::Tensor> values, state;
  for (std::size_t p = 0; p < np; ++p) {
    Expected<tensor::Tensor> v =
        shaped("param" + std::to_string(p), params[p]->value);
    if (!v) return v.status();
    values.push_back(std::move(*v));
  }
  for (std::size_t s = 0; s < *n; ++s) {
    Expected<tensor::Tensor> v =
        shaped("opt" + std::to_string(s), params[s % np]->value);
    if (!v) return v.status();
    state.push_back(std::move(*v));
  }
  for (std::size_t p = 0; p < np; ++p) params[p]->value = std::move(values[p]);
  opt.set_state(std::move(state));
  opt.set_step_count(*t);
  return {};
}

void put_rng(Checkpoint& ckpt, std::size_t replica,
             const std::mt19937_64& engine) {
  ckpt.blobs["rng" + std::to_string(replica)] = serialize_engine(engine);
}

Status take_rng(const Checkpoint& ckpt, std::size_t replica,
                std::mt19937_64& engine) {
  const auto it = ckpt.blobs.find("rng" + std::to_string(replica));
  if (it == ckpt.blobs.end())
    return Status::failed_precondition("checkpoint: RNG stream missing");
  return deserialize_engine(it->second, engine);
}

void put_losses(Checkpoint& ckpt, const std::vector<double>& losses) {
  for (std::size_t i = 0; i < losses.size(); ++i)
    ckpt.scalars["loss." + std::to_string(i)] = losses[i];
}

Status take_losses(const Checkpoint& ckpt, std::vector<double>& losses) {
  std::vector<double> history;
  for (std::uint64_t i = 0; i < ckpt.epoch; ++i) {
    const auto it = ckpt.scalars.find("loss." + std::to_string(i));
    if (it == ckpt.scalars.end())
      return Status::failed_precondition("checkpoint: loss history missing");
    history.push_back(it->second);
  }
  losses = std::move(history);
  return {};
}

}  // namespace sagesim::nn
