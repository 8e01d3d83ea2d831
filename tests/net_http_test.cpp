#include "net/http.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace abr::net {
namespace {

TEST(HttpHeaders, CaseInsensitiveLookup) {
  HttpHeaders headers;
  headers.set("Content-Length", "42");
  ASSERT_NE(headers.find("content-length"), nullptr);
  EXPECT_EQ(*headers.find("CONTENT-LENGTH"), "42");
  EXPECT_EQ(headers.find("Content-Type"), nullptr);
}

TEST(HttpHeaders, SetOverwritesExisting) {
  HttpHeaders headers;
  headers.set("Connection", "keep-alive");
  headers.set("connection", "close");
  EXPECT_EQ(headers.entries.size(), 1u);
  EXPECT_EQ(*headers.find("Connection"), "close");
}

TEST(ParseRequestLine, Valid) {
  HttpRequest request;
  ASSERT_TRUE(parse_request_line("GET /video/2/seg-7.m4s HTTP/1.1", request));
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/video/2/seg-7.m4s");
}

TEST(ParseRequestLine, RejectsMalformed) {
  HttpRequest request;
  EXPECT_FALSE(parse_request_line("", request));
  EXPECT_FALSE(parse_request_line("GET /x", request));
  EXPECT_FALSE(parse_request_line("GET /x HTTP/2.0", request));
  EXPECT_FALSE(parse_request_line("GET x HTTP/1.1", request));
  EXPECT_FALSE(parse_request_line("GET /x HTTP/1.1 extra", request));
}

TEST(ParseStatusLine, Valid) {
  HttpResponse response;
  ASSERT_TRUE(parse_status_line("HTTP/1.1 200 OK", response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.reason, "OK");
  ASSERT_TRUE(parse_status_line("HTTP/1.1 404 Not Found", response));
  EXPECT_EQ(response.status, 404);
  EXPECT_EQ(response.reason, "Not Found");
  ASSERT_TRUE(parse_status_line("HTTP/1.0 204", response));
  EXPECT_EQ(response.status, 204);
}

TEST(ParseStatusLine, RejectsMalformed) {
  HttpResponse response;
  EXPECT_FALSE(parse_status_line("SPDY/1 200 OK", response));
  EXPECT_FALSE(parse_status_line("HTTP/1.1", response));
  EXPECT_FALSE(parse_status_line("HTTP/1.1 abc OK", response));
  EXPECT_FALSE(parse_status_line("HTTP/1.1 99 Low", response));
}

/// Spins up a trivial threaded HTTP exchange over a loopback socket pair.
class HttpConnectionTest : public ::testing::Test {
 protected:
  void SetUp() override { listener_ = TcpListener::bind_loopback(); }

  TcpListener listener_;
};

TEST_F(HttpConnectionTest, RequestResponseRoundTrip) {
  std::thread server([this] {
    HttpConnection connection(listener_.accept());
    const auto request = connection.read_request();
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->method, "GET");
    EXPECT_EQ(request->target, "/hello");
    EXPECT_NE(request->headers.find("Host"), nullptr);

    HttpResponse response;
    response.body = "world";
    response.headers.set("Content-Type", "text/plain");
    connection.write_response(response);
  });

  HttpConnection client(TcpStream::connect("127.0.0.1", listener_.port()));
  HttpRequest request;
  request.method = "GET";
  request.target = "/hello";
  client.write_request(request, "127.0.0.1");
  const HttpResponse response = client.read_response();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "world");
  EXPECT_EQ(*response.headers.find("content-type"), "text/plain");
  server.join();
}

TEST_F(HttpConnectionTest, KeepAliveServesMultipleRequests) {
  std::thread server([this] {
    HttpConnection connection(listener_.accept());
    for (int i = 0; i < 3; ++i) {
      const auto request = connection.read_request();
      ASSERT_TRUE(request.has_value());
      HttpResponse response;
      response.body = "reply-" + std::to_string(i);
      connection.write_response(response);
    }
    // Fourth read: client closed -> clean EOF.
    EXPECT_FALSE(connection.read_request().has_value());
  });

  {
    HttpConnection client(TcpStream::connect("127.0.0.1", listener_.port()));
    for (int i = 0; i < 3; ++i) {
      HttpRequest request;
      request.method = "GET";
      request.target = "/r" + std::to_string(i);
      client.write_request(request, "localhost");
      EXPECT_EQ(client.read_response().body, "reply-" + std::to_string(i));
    }
  }  // destructor closes the connection
  server.join();
}

TEST_F(HttpConnectionTest, BodyWithContentLengthRoundTrips) {
  const std::string payload(100000, 'x');
  std::thread server([this, &payload] {
    HttpConnection connection(listener_.accept());
    const auto request = connection.read_request();
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->body, payload);
    HttpResponse response;
    response.body = payload;
    connection.write_response(response);
  });

  HttpConnection client(TcpStream::connect("127.0.0.1", listener_.port()));
  HttpRequest request;
  request.method = "POST";
  request.target = "/upload";
  request.body = payload;
  client.write_request(request, "localhost");
  EXPECT_EQ(client.read_response().body, payload);
  server.join();
}

TEST_F(HttpConnectionTest, ProgressCallbackObservesBody) {
  std::thread server([this] {
    HttpConnection connection(listener_.accept());
    (void)connection.read_request();
    HttpResponse response;
    response.body = std::string(50000, 'y');
    connection.write_response(response);
  });

  HttpConnection client(TcpStream::connect("127.0.0.1", listener_.port()));
  HttpRequest request;
  request.method = "GET";
  request.target = "/data";
  client.write_request(request, "localhost");
  std::size_t last_seen = 0;
  bool saw_done = false;
  client.read_response([&](std::size_t bytes, bool done) {
    EXPECT_GE(bytes, last_seen);
    last_seen = bytes;
    if (done) saw_done = true;
  });
  EXPECT_EQ(last_seen, 50000u);
  EXPECT_TRUE(saw_done);
  server.join();
}

/// A body whose bytes differ by position, so a byte read into the wrong
/// place shows.
std::string patterned_body(std::size_t size) {
  std::string body(size, '\0');
  for (std::size_t i = 0; i < size; ++i) {
    body[i] = static_cast<char>('a' + (i * 7) % 26);
  }
  return body;
}

TEST_F(HttpConnectionTest, BodySplitAcrossHeaderReadAndSmallWritesArrives) {
  // The first body bytes travel with the head, so the client's header read
  // buffers them; the rest comes in small, spaced writes that the client
  // reads straight into the body.
  const std::string body = patterned_body(20000);
  std::thread server([this, &body] {
    TcpStream stream = listener_.accept();
    HttpConnection connection(&stream);
    (void)connection.read_request();
    const std::size_t prefix = 300;
    stream.write_all("HTTP/1.1 200 OK\r\nContent-Length: " +
                     std::to_string(body.size()) + "\r\n\r\n" +
                     body.substr(0, prefix));
    for (std::size_t at = prefix; at < body.size(); at += 4000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      stream.write_all(body.substr(at, 4000));
    }
  });

  HttpConnection client(TcpStream::connect("127.0.0.1", listener_.port()));
  HttpRequest request;
  request.method = "GET";
  request.target = "/split";
  client.write_request(request, "localhost");
  std::vector<std::size_t> seen;
  std::size_t done_calls = 0;
  const HttpResponse response =
      client.read_response([&](std::size_t bytes, bool done) {
        if (!seen.empty()) {
          EXPECT_GE(bytes, seen.back());
        }
        EXPECT_EQ(done, bytes == body.size());
        seen.push_back(bytes);
        if (done) ++done_calls;
      });
  server.join();
  EXPECT_EQ(response.body, body);
  ASSERT_GE(seen.size(), 2u);  // at least the buffered prefix and one read
  EXPECT_GT(seen.front(), 0u);
  EXPECT_EQ(seen.back(), body.size());
  EXPECT_EQ(done_calls, 1u);
}

TEST_F(HttpConnectionTest, PeerClosingMidBodyThrowsClosedMidBody) {
  std::thread server([this] {
    TcpStream stream = listener_.accept();
    HttpConnection connection(&stream);
    (void)connection.read_request();
    stream.write_all("HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n" +
                     std::string(1000, 'z'));
    stream.shutdown_write();
  });

  HttpConnection client(TcpStream::connect("127.0.0.1", listener_.port()));
  HttpRequest request;
  request.method = "GET";
  request.target = "/cut";
  client.write_request(request, "localhost");
  std::size_t last_seen = 0;
  try {
    (void)client.read_response(
        [&](std::size_t bytes, bool) { last_seen = bytes; });
    ADD_FAILURE() << "a truncated body was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("closed mid-body"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(last_seen, 1000u);
  server.join();
}

TEST_F(HttpConnectionTest, MalformedRequestThrows) {
  std::thread client([this] {
    TcpStream stream = TcpStream::connect("127.0.0.1", listener_.port());
    stream.write_all("NONSENSE\r\n\r\n");
  });
  HttpConnection connection(listener_.accept());
  EXPECT_THROW(connection.read_request(), std::invalid_argument);
  client.join();
}

TEST_F(HttpConnectionTest, TruncatedBodyThrows) {
  std::thread client([this] {
    TcpStream stream = TcpStream::connect("127.0.0.1", listener_.port());
    stream.write_all("GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
    stream.shutdown_write();
  });
  HttpConnection connection(listener_.accept());
  EXPECT_THROW(connection.read_request(), std::invalid_argument);
  client.join();
}

TEST_F(HttpConnectionTest, HttpClientGetAndReconnect) {
  std::atomic<int> connections{0};
  std::thread server([this, &connections] {
    // Serve one request per connection (Connection: close), twice.
    for (int i = 0; i < 2; ++i) {
      HttpConnection connection(listener_.accept());
      ++connections;
      const auto request = connection.read_request();
      ASSERT_TRUE(request.has_value());
      HttpResponse response;
      response.body = "r" + std::to_string(i);
      response.headers.set("Connection", "close");
      connection.write_response(response);
    }
  });

  HttpClient client("127.0.0.1", listener_.port());
  EXPECT_EQ(client.get("/a").body, "r0");
  EXPECT_EQ(client.get("/b").body, "r1");
  EXPECT_EQ(connections.load(), 2);
  server.join();
}

TEST_F(HttpConnectionTest, BorrowedStreamMode) {
  // The connection borrows a stream owned elsewhere: the owner keeps it so
  // it can shut the stream down from another thread to interrupt a read.
  std::thread server([this] {
    TcpStream stream = listener_.accept();
    HttpConnection connection(&stream);
    const auto request = connection.read_request();
    ASSERT_TRUE(request.has_value());
    HttpResponse response;
    response.body = "borrowed";
    connection.write_response(response);
    // The stream is still owned here and valid after the exchange.
    EXPECT_TRUE(stream.valid());
  });

  HttpConnection client(TcpStream::connect("127.0.0.1", listener_.port()));
  HttpRequest request;
  request.method = "GET";
  request.target = "/b";
  client.write_request(request, "localhost");
  EXPECT_EQ(client.read_response().body, "borrowed");
  server.join();
}

TEST_F(HttpConnectionTest, HttpClientThrowsOnErrorStatus) {
  std::thread server([this] {
    HttpConnection connection(listener_.accept());
    (void)connection.read_request();
    HttpResponse response;
    response.status = 404;
    response.reason = "Not Found";
    connection.write_response(response);
  });
  HttpClient client("127.0.0.1", listener_.port());
  EXPECT_THROW(client.get("/missing"), std::runtime_error);
  server.join();
}

}  // namespace
}  // namespace abr::net
