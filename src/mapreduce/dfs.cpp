#include "mapreduce/dfs.hpp"

#include "common/check.hpp"

namespace clusterbft::mapreduce {

bool Dfs::exists(const std::string& path) const {
  return files_.count(path) > 0;
}

void Dfs::write(const std::string& path, dataflow::Relation rel) {
  File f;
  // Pre-compute split boundaries: pack rows greedily into block_size_
  // chunks of canonical bytes. Deterministic, so every replica sees the
  // same splits — a precondition for comparable per-split digests. Each
  // row is sized once; the file and split totals fall out of the same pass.
  f.split_starts.push_back(0);
  std::uint64_t in_block = 0;
  for (std::size_t i = 0; i < rel.rows().size(); ++i) {
    const std::uint64_t row_bytes = dataflow::serialized_size(rel.rows()[i]);
    if (in_block > 0 && in_block + row_bytes > block_size_) {
      f.split_starts.push_back(i);
      f.split_bytes.push_back(in_block);
      in_block = 0;
    }
    in_block += row_bytes;
    f.byte_size += row_bytes;
  }
  f.split_bytes.push_back(in_block);
  f.generation = ++writes_;
  f.rel = std::move(rel);
  metrics_.bytes_written += f.byte_size;
  files_[path] = std::move(f);
}

const Dfs::File& Dfs::file_at(const std::string& path) const {
  auto it = files_.find(path);
  CBFT_CHECK_MSG(it != files_.end(), "DFS: no such file: " + path);
  return it->second;
}

const dataflow::Relation& Dfs::read(const std::string& path) {
  const File& f = file_at(path);
  metrics_.bytes_read += f.byte_size;
  return f.rel;
}

std::uint64_t Dfs::size_of(const std::string& path) const {
  return file_at(path).byte_size;
}

std::uint64_t Dfs::generation_of(const std::string& path) const {
  return file_at(path).generation;
}

std::size_t Dfs::num_splits(const std::string& path) const {
  return file_at(path).split_starts.size();
}

dataflow::Relation Dfs::read_split(const std::string& path,
                                   std::size_t index) {
  const File& f = file_at(path);
  CBFT_CHECK_MSG(index < f.split_starts.size(), "DFS: split out of range");
  const std::size_t begin = f.split_starts[index];
  const std::size_t end = (index + 1 < f.split_starts.size())
                              ? f.split_starts[index + 1]
                              : f.rel.rows().size();
  dataflow::Relation out(f.rel.schema());
  out.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) out.add(f.rel.rows()[i]);
  metrics_.bytes_read += f.split_bytes[index];
  return out;
}

void Dfs::remove(const std::string& path) { files_.erase(path); }

std::vector<std::string> Dfs::list() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, file] : files_) out.push_back(path);
  return out;
}

}  // namespace clusterbft::mapreduce
